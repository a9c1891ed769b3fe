package mem

// TB models the 11/780 translation buffer: 128 entries organized as two
// halves — one for system-space addresses, one for process-space — each
// set-associative. A context switch (the LDPCTX microcode) flushes only
// the process half; this split is why the paper's companion study [3]
// cares about context-switch headway for TB simulations (§3.4).
type TB struct {
	ways int
	sets divisor // sets per half

	// tags[half][set*ways+way] is the entry's page number with validBit
	// set (0: invalid); half 0 = process, 1 = system. Both halves are
	// slices of one backing array.
	tags [2][]uint32
	// clock drives round-robin replacement, as the real TB's random
	// replacement is well-approximated by it at this granularity. It
	// counts modulo ways.
	clock uint32
}

func newTB(entries, ways int) *TB {
	setsPerHalf := max(entries/2/ways, 1)
	n := setsPerHalf * ways
	all := make([]uint32, 2*n)
	return &TB{
		ways: ways,
		sets: newDivisor(setsPerHalf),
		tags: [2][]uint32{all[:n:n], all[n:]},
	}
}

// set returns the tag words of vpn's set in the given space.
func (t *TB) set(vpn uint32, sys bool) []uint32 {
	half := t.tags[0]
	if sys {
		half = t.tags[1]
	}
	base := int(t.sets.mod(vpn)) * t.ways
	return half[base : base+t.ways]
}

// lookup probes the TB for vpn in the given space.
func (t *TB) lookup(vpn uint32, sys bool) bool {
	want := vpn | validBit
	for _, tag := range t.set(vpn, sys) {
		if tag == want {
			return true
		}
	}
	return false
}

// insert installs vpn, evicting round-robin within its set.
func (t *TB) insert(vpn uint32, sys bool) {
	set := t.set(vpn, sys)
	want := vpn | validBit
	w := -1
	for i, tag := range set {
		if tag == 0 {
			w = i
			break
		}
		if tag == want {
			return
		}
	}
	if w < 0 {
		t.clock++
		if t.clock == uint32(t.ways) {
			t.clock = 0
		}
		w = int(t.clock)
	}
	set[w] = want
}

// flushProcess invalidates the process half.
func (t *TB) flushProcess() { clear(t.tags[0]) }
