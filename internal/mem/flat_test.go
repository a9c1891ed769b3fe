package mem

import (
	"math"
	"math/rand"
	"testing"
)

func TestModReducerExact(t *testing.T) {
	rng := rand.New(rand.NewSource(780))
	var ds []uint32
	for d := uint32(1); d <= 1<<20; d <<= 1 {
		ds = append(ds, d)
	}
	for d := uint32(3); d <= 70000; d = d*3/2 + 1 {
		ds = append(ds, d)
	}
	ds = append(ds, 1536, 65535, 65537, math.MaxUint32)
	for _, d := range ds {
		v := newDivisor(int(d))
		as := []uint32{0, 1, d - 1, d, d + 1, math.MaxUint32, math.MaxUint32 - 1}
		for i := 0; i < 64; i++ {
			as = append(as, rng.Uint32())
		}
		for _, a := range as {
			if got, want := v.mod(a), a%d; got != want {
				t.Fatalf("mod(%d) by %d = %d, want %d", a, d, got, want)
			}
		}
	}
}

// nestedCache and nestedTB are the reference models: the per-set
// nested-slice layout, with a division for the set index and the tag,
// that the flat Cache and TB replace.
type nestedCache struct {
	ways, sets int
	blockBits  uint
	tags       [][]uint32
	valid      [][]bool
	victim     []uint32
}

func newNestedCache(bytes, ways, block int) *nestedCache {
	sets := max(bytes/(ways*block), 1)
	c := &nestedCache{ways: ways, sets: sets, blockBits: log2(block),
		tags: make([][]uint32, sets), valid: make([][]bool, sets), victim: make([]uint32, sets)}
	for i := range c.tags {
		c.tags[i] = make([]uint32, ways)
		c.valid[i] = make([]bool, ways)
	}
	return c
}

func (c *nestedCache) access(pa uint32, allocate bool) bool {
	blk := pa >> c.blockBits
	set := blk % uint32(c.sets)
	tag := blk / uint32(c.sets)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			return true
		}
	}
	if allocate {
		v := c.victim[set] % uint32(c.ways)
		c.victim[set]++
		c.tags[set][v] = tag
		c.valid[set][v] = true
	}
	return false
}

func (c *nestedCache) flush() {
	for s := range c.valid {
		for w := range c.valid[s] {
			c.valid[s][w] = false
		}
	}
}

// tbEntry is the nested TB's entry: a page number and a separate valid
// flag, where the flat TB packs both into one tag word.
type tbEntry struct {
	vpn   uint32
	valid bool
}

type nestedTB struct {
	ways, sets int
	entries    [2][][]tbEntry
	clock      uint32
}

func newNestedTB(entries, ways int) *nestedTB {
	sets := max(entries/2/ways, 1)
	t := &nestedTB{ways: ways, sets: sets}
	for half := range t.entries {
		t.entries[half] = make([][]tbEntry, sets)
		for s := range t.entries[half] {
			t.entries[half][s] = make([]tbEntry, ways)
		}
	}
	return t
}

func (t *nestedTB) half(sys bool) [][]tbEntry {
	if sys {
		return t.entries[1]
	}
	return t.entries[0]
}

func (t *nestedTB) lookup(vpn uint32, sys bool) bool {
	for _, e := range t.half(sys)[vpn%uint32(t.sets)] {
		if e.valid && e.vpn == vpn {
			return true
		}
	}
	return false
}

func (t *nestedTB) insert(vpn uint32, sys bool) {
	set := t.half(sys)[vpn%uint32(t.sets)]
	for i := range set {
		if !set[i].valid {
			set[i] = tbEntry{vpn: vpn, valid: true}
			return
		}
		if set[i].vpn == vpn {
			return
		}
	}
	t.clock++
	set[t.clock%uint32(t.ways)] = tbEntry{vpn: vpn, valid: true}
}

func (t *nestedTB) flushProcess() {
	for _, set := range t.entries[0] {
		for w := range set {
			set[w].valid = false
		}
	}
}

// refAddr draws a reference: mostly from a few hot 16 KB regions, so
// sets see hits, conflicts and evictions, and sometimes anywhere in the
// 32-bit space, so tags use every bit.
func refAddr(rng *rand.Rand, hot []uint32) uint32 {
	if rng.Intn(8) == 0 {
		return rng.Uint32()
	}
	return hot[rng.Intn(len(hot))] + uint32(rng.Intn(16<<10))
}

func TestFlatCacheMatchesNested(t *testing.T) {
	for _, g := range []struct {
		name               string
		bytes, ways, block int
	}{
		{"stock-512x2", 8 << 10, 2, 8},
		{"1536x2", 24 << 10, 2, 8},
		{"single-set", 16, 2, 8},
		{"512x3", 12 << 10, 3, 8},
	} {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.bytes*g.ways + g.block)))
			hot := []uint32{0, 0x0001_0000, 0x7fff_c000, 0x8000_0000, 0xffff_c000}
			flat, ref := newCache(g.bytes, g.ways, g.block), newNestedCache(g.bytes, g.ways, g.block)
			var hits int
			for i := 0; i < 200_000; i++ {
				if rng.Intn(20_000) == 0 {
					flat.Flush()
					ref.flush()
					continue
				}
				pa, read := refAddr(rng, hot), rng.Intn(4) != 0
				got, want := flat.access(pa, read), ref.access(pa, read)
				if got != want {
					t.Fatalf("ref %d: access(%#x, %t) hit=%t, nested model hit=%t", i, pa, read, got, want)
				}
				if got {
					hits++
				}
			}
			if hits == 0 || hits == 200_000 {
				t.Fatalf("stream exercised no mix of hits and misses (%d hits)", hits)
			}
		})
	}
}

func TestFlatTBMatchesNested(t *testing.T) {
	for _, g := range []struct {
		name          string
		entries, ways int
	}{
		{"stock-128", 128, 2},
		{"3-sets-per-half", 12, 2},
		{"single-set", 4, 2},
	} {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.entries)))
			hot := []uint32{0, 0x0001_0000, 0x7fff_c000, 0x8000_0000, 0xffff_c000}
			flat, ref := newTB(g.entries, g.ways), newNestedTB(g.entries, g.ways)
			var hits int
			for i := 0; i < 200_000; i++ {
				if rng.Intn(2_000) == 0 {
					flat.flushProcess()
					ref.flushProcess()
					continue
				}
				va := refAddr(rng, hot)
				vpn, sys := va/512, systemSpace(va)
				got, want := flat.lookup(vpn, sys), ref.lookup(vpn, sys)
				if got != want {
					t.Fatalf("probe %d: lookup(%#x, %t) hit=%t, nested model hit=%t", i, vpn, sys, got, want)
				}
				if got {
					hits++
				} else {
					flat.insert(vpn, sys)
					ref.insert(vpn, sys)
				}
			}
			if hits == 0 || hits == 200_000 {
				t.Fatalf("stream exercised no mix of hits and misses (%d hits)", hits)
			}
		})
	}
}
