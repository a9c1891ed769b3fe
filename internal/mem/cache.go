package mem

import "math/bits"

// Cache models the 11/780 data cache: physically addressed, write-through,
// no write-allocate. Both the D-stream and the IB refill path reference
// it; a read miss fills the block, a write updates only on hit.
//
// The state is flat: way w of set s lives at index s*ways+w of tags. A
// tag word is the whole block number with validBit set, so a probe is one
// compare per way and an invalid way (tag 0) never matches. The set index
// is the only division an access needs, and sets reduces it to two
// multiplies.
type Cache struct {
	ways      int
	sets      divisor
	blockBits uint

	tags []uint32
	// round-robin victim pointer per set (the 780 used random
	// replacement; round-robin is the standard deterministic stand-in).
	victim []uint32
}

// validBit marks a tag word (cache or TB) as holding an entry. Block and
// page numbers never reach it: mem.New requires cache blocks and pages of
// at least 2 bytes, so both are 31-bit numbers.
const validBit = 1 << 31

func newCache(bytes, ways, block int) *Cache {
	sets := max(bytes/(ways*block), 1)
	return &Cache{
		ways:      ways,
		sets:      newDivisor(sets),
		blockBits: log2(block),
		tags:      make([]uint32, sets*ways),
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
	tags := c.tags[base : base+c.ways]
	want := blk | validBit
	for _, tag := range tags {
		if tag == want {
			return true
		}
	}
	if allocate {
		v := c.victim[set]
		next := v + 1
		if next == uint32(len(tags)) {
			next = 0
		}
		c.victim[set] = next
		tags[v] = want
	}
	return false
}

// Flush invalidates the whole cache.
func (c *Cache) Flush() { clear(c.tags) }
