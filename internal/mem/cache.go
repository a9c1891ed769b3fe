package mem

import "math/bits"

// Cache models the 11/780 data cache: physically addressed, write-through,
// no write-allocate. Both the D-stream and the IB refill path reference
// it; a read miss fills the block, a write updates only on hit.
//
// The state is flat: way w of set s lives at index s*ways+w of tags and
// valid. A tag is the whole block number, so the set index is the only
// division an access needs, and sets reduces it to two multiplies.
type Cache struct {
	ways      int
	sets      divisor
	blockBits uint

	tags  []uint32
	valid []bool
	// round-robin victim pointer per set (the 780 used random
	// replacement; round-robin is the standard deterministic stand-in).
	victim []uint32
}

func newCache(bytes, ways, block int) *Cache {
	sets := max(bytes/(ways*block), 1)
	return &Cache{
		ways:      ways,
		sets:      newDivisor(sets),
		blockBits: log2(block),
		tags:      make([]uint32, sets*ways),
		valid:     make([]bool, sets*ways),
		victim:    make([]uint32, sets),
	}
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}

// divisor is an exact modulo reducer for a fixed 32-bit divisor d ≥ 1
// (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation",
// 2019): with m = ⌊(2^64−1)/d⌋+1, a mod d is the high word of
// (m·a mod 2^64)·d. It is exact for every 32-bit a and d, powers of
// two or not. At d = 1, m wraps to 0 and the remainder is 0.
type divisor struct {
	d uint64
	m uint64
}

func newDivisor(d int) divisor {
	return divisor{d: uint64(d), m: ^uint64(0)/uint64(d) + 1}
}

// mod returns a % d.
func (v divisor) mod(a uint32) uint32 {
	hi, _ := bits.Mul64(v.m*uint64(a), v.d)
	return uint32(hi)
}

// access references physical address pa. allocate selects read behaviour
// (fill on miss) versus write behaviour (update on hit only). It reports
// whether the reference hit.
func (c *Cache) access(pa uint32, allocate bool) bool {
	blk := pa >> c.blockBits
	set := c.sets.mod(blk)
	base := int(set) * c.ways
	tags, valid := c.tags[base:base+c.ways], c.valid[base:base+c.ways]
	for w, tag := range tags {
		if valid[w] && tag == blk {
			return true
		}
	}
	if allocate {
		v := c.victim[set] % uint32(c.ways)
		c.victim[set]++
		tags[v] = blk
		valid[v] = true
	}
	return false
}

// Flush invalidates the whole cache.
func (c *Cache) Flush() { clear(c.valid) }
