package obs

// Chrome trace-event export for obs span trees (load in Perfetto /
// chrome://tracing) — the one Chrome writer for every span tree in
// the repo. A tree mixes two timebases: wall-placed spans (service
// spans, and the run and workload spans of a profiled run) carry
// measured host placements; the rest carry simulated cycles only and
// must stay byte-deterministic across -j. The layout rules:
//
//   - a wall-placed span sits at its measured offset;
//   - wall-free children are laid out back to back from their
//     parent's start, each taking a share of the parent's rendered
//     window in proportion to its cycles, so a profiled workload's
//     flows partition its measured wall time (a span's cycle budget is
//     its own count or its wall-free children's sum, whichever is
//     larger, so the children always fit);
//   - siblings that overlap in time (workloads of a -j > 1 run) go on
//     separate tracks; a sibling that starts after the earlier ones
//     end shares its parent's track.
//
// A trace with no wall data therefore renders one cycle as one
// microsecond on a single track: schematic positions, faithful
// magnitudes and nesting, fully deterministic.

import (
	"encoding/json"
	"io"
)

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the tree as Chrome trace-event JSON ("X"
// complete events, microseconds).
func WriteChromeTrace(w io.Writer, trace string, root *Span) error {
	// budget is a span's size in cycles: its own count or the sum of
	// its wall-free children, whichever is larger (a leaf with neither
	// still renders, as one cycle).
	memo := make(map[*Span]float64)
	var budget func(s *Span) float64
	budget = func(s *Span) float64 {
		if b, ok := memo[s]; ok {
			return b
		}
		var sum float64
		for _, c := range s.children {
			if c.DurNs <= 0 {
				sum += budget(c)
			}
		}
		b := max(float64(s.Cycles), sum)
		if b == 0 {
			b = 1
		}
		memo[s] = b
		return b
	}

	var events []chromeEvent
	nextTid := 2
	var layout func(s *Span, ts, dur float64, tid int)
	layout = func(s *Span, ts, dur float64, tid int) {
		args := make(map[string]any, len(s.attrs)+1)
		args["trace"] = trace
		for k, v := range s.attrs {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Kind, Ph: "X",
			Ts: ts, Dur: dur, Pid: 1, Tid: tid,
			Args: args,
		})
		scale := dur / budget(s)
		cur := ts
		// Tracks of s's children: index 0 is s's own tid.
		var ends []float64
		var tids []int
		for _, c := range s.children {
			cts, cdur := cur, budget(c)*scale
			if c.DurNs > 0 {
				cts, cdur = c.StartNs/1e3, c.DurNs/1e3
			} else {
				cur += cdur
			}
			k := 0
			for k < len(ends) && ends[k] > cts {
				k++
			}
			if k == len(ends) {
				t := tid
				if k > 0 {
					t = nextTid
					nextTid++
				}
				ends, tids = append(ends, 0), append(tids, t)
			}
			ends[k] = cts + cdur
			layout(c, cts, cdur, tids[k])
		}
	}
	if root != nil {
		ts, dur := 0.0, budget(root)
		if root.DurNs > 0 {
			ts, dur = root.StartNs/1e3, root.DurNs/1e3
		}
		layout(root, ts, dur, 1)
	}
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events}
	return json.NewEncoder(w).Encode(out)
}
