package mem

// TB models the 11/780 translation buffer: 128 entries organized as two
// halves — one for system-space addresses, one for process-space — each
// set-associative. A context switch (the LDPCTX microcode) flushes only
// the process half; this split is why the paper's companion study [3]
// cares about context-switch headway for TB simulations (§3.4).
type TB struct {
	ways int
	sets divisor // sets per half

	// entries[half][set*ways+way]; half 0 = process, 1 = system. Both
	// halves are slices of one backing array.
	entries [2][]tbEntry
	// clock drives round-robin replacement, as the real TB's random
	// replacement is well-approximated by it at this granularity.
	clock uint32
}

type tbEntry struct {
	vpn   uint32
	valid bool
}

func newTB(entries, ways int) *TB {
	setsPerHalf := max(entries/2/ways, 1)
	n := setsPerHalf * ways
	all := make([]tbEntry, 2*n)
	return &TB{
		ways:    ways,
		sets:    newDivisor(setsPerHalf),
		entries: [2][]tbEntry{all[:n:n], all[n:]},
	}
}

// set returns the ways of vpn's set in the given space.
func (t *TB) set(vpn uint32, sys bool) []tbEntry {
	half := t.entries[0]
	if sys {
		half = t.entries[1]
	}
	base := int(t.sets.mod(vpn)) * t.ways
	return half[base : base+t.ways]
}

// lookup probes the TB for vpn in the given space.
func (t *TB) lookup(vpn uint32, sys bool) bool {
	set := t.set(vpn, sys)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			return true
		}
	}
	return false
}

// insert installs vpn, evicting round-robin within its set.
func (t *TB) insert(vpn uint32, sys bool) {
	set := t.set(vpn, sys)
	w := -1
	for i := range set {
		if !set[i].valid {
			w = i
			break
		}
		if set[i].vpn == vpn {
			return
		}
	}
	if w < 0 {
		t.clock++
		w = int(t.clock % uint32(t.ways))
	}
	set[w].vpn, set[w].valid = vpn, true
}

// flushProcess invalidates the process half.
func (t *TB) flushProcess() { clear(t.entries[0]) }
