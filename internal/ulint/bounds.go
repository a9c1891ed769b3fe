package ulint

import (
	"fmt"
	"sort"
	"strings"

	"vax780/internal/ucode"
)

// LoopBound describes one bounded loop inside a flow.
type LoopBound struct {
	Head   uint16        // loop head (the closer's back-edge target)
	Closer uint16        // the SeqLoop word
	Body   int           // worst-case cycles of one iteration
	Src    ucode.LoopSrc // what loads the counter
	Cap    int           // maximum iteration count
}

// FlowBound is the worst-case cycle bound of one flow, excluding memory
// and IB stalls (the control store cannot bound those — they depend on
// cache and I-stream behaviour) and excluding the flows a dispatch exit
// continues into (each flow is bounded separately; an instruction's
// bound is the sum over the flows it passes through).
type FlowBound struct {
	Name  string
	Entry uint16

	// Straight is the longest path from entry to an exit with every loop
	// executed once.
	Straight int

	// Loops are the flow's bounded loops; Worst adds their extra
	// iterations to Straight.
	Loops []LoopBound
	Worst int
}

func (f FlowBound) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %05o  straight %3d  worst %4d", f.Name, f.Entry, f.Straight, f.Worst)
	for _, l := range f.Loops {
		fmt.Fprintf(&b, "  [loop@%05o body %d × cap %d]", l.Closer, l.Body, l.Cap)
	}
	return b.String()
}

// loopCap is the analyzer's iteration ceiling per counter source. The
// data-dependent counts are bounded by the architecture: 15 saveable
// registers, 16 longwords per string buffer slice the generator emits,
// 64 bytes per byte-serial slice, 16 decimal digit pairs (31 digits),
// and 2 longwords for a bit field crossing a boundary. LoopImm takes
// its exact count from the loading word instead.
func loopCap(src ucode.LoopSrc, immN int) int {
	switch src {
	case ucode.LoopImm:
		if immN < 1 {
			return 1
		}
		return immN
	case ucode.LoopRegCount:
		return 15
	case ucode.LoopStrLW:
		return 16
	case ucode.LoopStrBytes:
		return 64
	case ucode.LoopDigits:
		return 16
	case ucode.LoopFieldLen:
		return 2
	}
	return 1
}

// passBounds computes per-flow worst-case cycle bounds for every flow
// that passed the termination checks. Word cost is one cycle; the taken
// path of a conditional branch adds the one-cycle B-DISP subroutine.
func (a *analyzer) passBounds(r *Report) {
	for _, entry := range a.flowEntries() {
		if a.badFlows[entry] {
			continue
		}
		words := a.flowWords(entry)
		inFlow := make(map[uint16]bool, len(words))
		for _, w := range words {
			inFlow[w] = true
		}

		fb := FlowBound{
			Name:     a.flowName(entry),
			Entry:    entry,
			Straight: a.longestPath(entry, inFlow),
		}
		fb.Worst = fb.Straight

		for _, closer := range words {
			if a.img.At(closer).Seq != ucode.SeqLoop {
				continue
			}
			body := a.loopBody(closer, inFlow)
			if len(body) == 0 {
				continue
			}
			lb := LoopBound{
				Head:   a.img.At(closer).Target,
				Closer: closer,
				Body:   len(body),
				Src:    a.loopSrcFor(closer, inFlow),
			}
			lb.Cap = loopCap(lb.Src, a.loopImmFor(closer, inFlow))
			fb.Loops = append(fb.Loops, lb)
			fb.Worst += (lb.Cap - 1) * lb.Body
		}
		r.Bounds = append(r.Bounds, fb)
	}
	sort.Slice(r.Bounds, func(i, j int) bool { return r.Bounds[i].Entry < r.Bounds[j].Entry })
}

// longestPath computes the longest entry-to-exit path over the flow's
// acyclic graph (LoopBack edges removed; termination proved that first),
// memoized per word.
func (a *analyzer) longestPath(entry uint16, inFlow map[uint16]bool) int {
	memo := make(map[uint16]int)
	var visit func(w uint16) int
	visit = func(w uint16) int {
		if c, ok := memo[w]; ok {
			return c
		}
		cost := 1
		best := 0
		for _, e := range a.intraSucc(w) {
			if e.Kind == EdgeLoopBack || !inFlow[e.To] {
				continue
			}
			if e.Kind == EdgeReturn {
				// Taken conditional branch: the B-DISP subroutine runs one
				// cycle before control returns to the target.
				if c := 1 + visit(e.To); c > best {
					best = c
				}
				continue
			}
			if c := visit(e.To); c > best {
				best = c
			}
		}
		cost += best
		memo[w] = cost
		return cost
	}
	return visit(entry)
}

// loopSrcFor finds the counter source feeding a loop closer: the
// loop-load word in the flow that can reach the closer's head without
// crossing a back edge. Multiple candidate loads take the one with the
// largest cap (a conservative bound).
func (a *analyzer) loopSrcFor(closer uint16, inFlow map[uint16]bool) ucode.LoopSrc {
	src := ucode.LoopNone
	bestCap := 0
	for w := range inFlow {
		mi := a.img.At(w)
		if mi.Loop == ucode.LoopNone {
			continue
		}
		if !a.reachesForward(w, a.img.At(closer).Target, inFlow) {
			continue
		}
		if c := loopCap(mi.Loop, int(mi.N)); c > bestCap {
			bestCap = c
			src = mi.Loop
		}
	}
	return src
}

// loopImmFor returns the immediate count of the LoopImm load feeding the
// closer, when there is one.
func (a *analyzer) loopImmFor(closer uint16, inFlow map[uint16]bool) int {
	best := 0
	for w := range inFlow {
		mi := a.img.At(w)
		if mi.Loop != ucode.LoopImm {
			continue
		}
		if !a.reachesForward(w, a.img.At(closer).Target, inFlow) {
			continue
		}
		best = max(best, int(mi.N))
	}
	return best
}

// reachesForward reports whether to is reachable from from via
// non-LoopBack intra edges within the flow.
func (a *analyzer) reachesForward(from, to uint16, inFlow map[uint16]bool) bool {
	seen := make(map[uint16]bool)
	stack := []uint16{from}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if w == to {
			return true
		}
		if seen[w] || !inFlow[w] {
			continue
		}
		seen[w] = true
		for _, e := range a.intraSucc(w) {
			if e.Kind != EdgeLoopBack && !seen[e.To] {
				stack = append(stack, e.To)
			}
		}
	}
	return false
}
