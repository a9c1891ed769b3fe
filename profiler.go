package vax780

// The public face of the host-time profiler (internal/prof): attach a
// Profiler to RunConfig and the run attributes its own wall-clock
// nanoseconds onto the micro-architectural structure it simulates —
// control-store flows, straight-line segments, Table 8 cycle classes —
// exactly the way the paper's board attributes the 780's elapsed time
// onto its microcode. One engine serves both views: a Profiler prices
// each workload's exact histogram at the measured wall time as the run
// merges it, and Results.Profile attributes the composite histogram
// after the fact, unpriced (the Results carry no wall time).

import (
	"log/slog"
	"sync"
	"sync/atomic"

	"vax780/internal/prof"
	"vax780/internal/runlog"
	"vax780/internal/ulint"
	"vax780/internal/upc"
)

// Profile is a host-time attribution report: flows hottest first, with
// cycles, Table 8 class splits, shares, and (when priced) host ns.
type Profile = prof.Profile

// FlowCost is one flow's row of a Profile.
type FlowCost = prof.FlowCost

// flowIndex returns the flow index of the shared control store — the
// per-ROM cached analysis (ulint.IndexFor) the profiler and vaxlint
// both classify against, so the two cannot disagree about where a flow
// begins.
func flowIndex() *ulint.FlowIndex {
	return ulint.IndexFor(machineROM())
}

// Profiler attaches the host-time profiler to a run (set
// RunConfig.Profiler). It reads what the UPC board counted: at every
// workload merge the profiler folds that workload's exact histogram and
// its measured duration in (in workload order, so the aggregate is
// bit-exact across Parallelism) and publishes a cumulative Profile for
// the telemetry /prof endpoint and vaxtop, each flow priced at its
// cycle share of the summed wall time. After Run returns, Profile holds
// the whole run. The profile attributes the board's counts, so under a
// fault plan or after a /board/stop it matches Results.Profile and the
// trace's flow spans, not the cycles the machine ran; a workload folded
// in from a checkpoint contributes no cycles and no wall time.
//
// The profiler keeps no span tree of its own: a run that also sets
// RunConfig.Trace gets the profiler clock's wall placements on its run
// and workload spans, and that one trace — exact flows, schema-checked
// by obs.ValidateSpans — is what obs.WriteChromeTrace and
// Recorder.WriteJSONL export.
//
// A Profiler instance serves one Run at a time; Run resets it on entry,
// so reusing one across sequential runs is fine, sharing one across
// concurrent runs is not.
type Profiler struct {
	// MaxFlows bounds the hot-flow list of the ledger's prof event
	// (default 10; the full flow set is always in Profile). A run
	// trace's flow children are its exact top flows, independent of
	// every Profiler setting.
	MaxFlows int

	mu     sync.Mutex
	clock  *runlog.Clock
	agg    upc.Histogram // summed workload histograms, merged in workload order
	wallNs float64       // summed measured workload durations
	latest atomic.Pointer[prof.Profile]
}

// maxFlows resolves the hot-flow list bound.
func (p *Profiler) maxFlows() int {
	if p.MaxFlows > 0 {
		return p.MaxFlows
	}
	return 10
}

// begin resets the profiler for a new run and starts its wall clock.
func (p *Profiler) begin() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock = runlog.NewClock()
	p.agg = upc.Histogram{}
	p.wallNs = 0
	p.latest.Store(nil)
}

// nowNs reads the profiler's wall clock (0 on a nil profiler, so the
// supervisor needs no guards).
func (p *Profiler) nowNs() float64 {
	if p == nil {
		return 0
	}
	return p.clock.Ns()
}

// noteWorkload folds one completed workload into the profile: its
// exact histogram and its measured duration. Called by the merge, in
// workload order, which is what keeps the aggregate bit-exact across
// -j.
func (p *Profiler) noteWorkload(hist *upc.Histogram, startNs, endNs float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.agg.Add(hist)
	p.wallNs += endNs - startNs
	p.latest.Store(p.profile())
}

// finishRun closes the run and publishes the final profile.
func (p *Profiler) finishRun() *prof.Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	final := p.profile()
	p.latest.Store(final)
	return final
}

// profile prices the aggregate histogram at the run's measured mean
// ns/cycle, which gives each flow its cycle share of the wall time.
// Callers hold mu.
func (p *Profiler) profile() *prof.Profile {
	return prof.Exact(machineROM(), flowIndex(), &p.agg, p.wallNs)
}

// Profile returns the latest published profile: cumulative while the
// run executes (updated at each workload merge), final after Run
// returns. Nil before the first workload completes. Safe to call from
// any goroutine.
func (p *Profiler) Profile() *Profile {
	return p.latest.Load()
}

// latestAny is the telemetry /prof closure (a typed nil must become an
// untyped one, or the handler's nil test would pass a dead pointer).
func (p *Profiler) latestAny() any {
	prof := p.latest.Load()
	if prof == nil {
		return nil
	}
	return prof
}

// profFlowRow is the deterministic per-flow row of the ledger's prof
// event: counts and shares only — the wall-clock side rides in the
// event's host group, which StripWallClock removes.
type profFlowRow struct {
	Name   string  `json:"name"`
	Entry  uint16  `json:"entry"`
	Cycles uint64  `json:"cycles"`
	Share  float64 `json:"share"`
}

// profRows converts a profile's hottest flows to ledger rows.
func profRows(p *prof.Profile, n int) []profFlowRow {
	top := p.Top(n)
	rows := make([]profFlowRow, len(top))
	for i, f := range top {
		rows[i] = profFlowRow{Name: f.Name, Entry: f.Entry, Cycles: f.Cycles, Share: f.Share}
	}
	return rows
}

// profSummaryAttrs is the run-done event's prof group: the profiler's
// deterministic summary.
func profSummaryAttrs(p *prof.Profile) []slog.Attr {
	attrs := []slog.Attr{slog.Uint64("cycles", p.TotalCycles)}
	if len(p.Flows) > 0 {
		attrs = append(attrs, slog.String("top_flow", p.Flows[0].Name))
	}
	return attrs
}

// Profile runs the exact attribution engine over the run's composite
// histogram: every bucket count assigned to its owning control-store
// flow and Table 8 class, with cycles and shares but no host ns (a
// Profiler attached to the run prices the same flows at its measured
// wall time). The histogram is bit-exact across Parallelism, so the
// profile is deterministic.
func (r *Results) Profile() *Profile {
	return prof.Exact(machineROM(), flowIndex(), r.hist, 0)
}
