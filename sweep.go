package vax780

// The sweep engine: every §5 experiment of the paper is an independent
// machine configuration run against the same workloads, and the
// characterization studies (cache geometry, TB size, flush interval,
// decode overlap, fault rates) are sweeps over such design points. The
// engine fans the points across a bounded worker pool while sharing
// every piece of immutable state a point does not own: the assembled
// control store (built once, process-wide, by the machine package),
// the generated workload traces (read-only once built, cached by
// shape), and the pooled histogram monitors.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"vax780/internal/runlog"
)

// SweepPoint is one design point of a characterization sweep.
type SweepPoint struct {
	// Label identifies the point in results and tables (e.g. "8KB/2-way").
	Label string
	// Config is the point's run configuration. Points must be
	// self-contained: a Telemetry instance, Checkpoint path, or
	// Profiler cannot be attached to a sweep point (all are single-run
	// state; the point fails with an error).
	Config RunConfig
}

// SweepResult pairs a design point with its outcome. Exactly one of
// Results/Err is set.
type SweepResult struct {
	Label   string
	Results *Results
	Err     error
}

// SweepOptions tunes the sweep engine.
type SweepOptions struct {
	// Parallelism bounds concurrently executing design points
	// (default: GOMAXPROCS). Each point runs its own workloads
	// sequentially — the fan-out is across points.
	Parallelism int

	// Ledger, when non-nil, receives the sweep ledger: sweep-start, one
	// sweep-point-done per design point, and sweep-done, as JSONL. The
	// stream is byte-identical across Parallelism settings once
	// wall-clock fields are stripped: point events persist in input
	// order after the fan-out completes.
	Ledger io.Writer

	// Progress, when non-nil, receives periodic fleet snapshots of the
	// sweep workers: each worker's current design point and workload
	// (label "point/workload"), instructions, rates, and ETA against the
	// whole sweep's instruction budget.
	Progress func(Progress)

	// progressInterval is a test seam: the Progress snapshot period (0
	// means the tracker's 1s default).
	progressInterval time.Duration
}

// observed reports whether the sweep carries an observability consumer.
func (o *SweepOptions) observed() bool {
	return o.Ledger != nil || o.Progress != nil
}

// pointInstrBudget estimates a design point's instruction total (its
// per-workload count times its workload count, with Run's defaults) for
// the sweep-wide ETA.
func pointInstrBudget(pt SweepPoint) uint64 {
	instrs := pt.Config.Instructions
	if instrs <= 0 {
		instrs = 50_000
	}
	n := len(pt.Config.Workloads)
	if n == 0 {
		n = int(NumWorkloads)
	}
	return uint64(instrs) * uint64(n)
}

// Sweep executes the design points concurrently and returns their
// results in input order. Results are deterministic: each point is an
// ordinary Run (bit-exact with running it alone), and shared state is
// all immutable — the control store, the cached traces, the workload
// programs.
func Sweep(points []SweepPoint, opt SweepOptions) []SweepResult {
	return SweepContext(context.Background(), points, opt)
}

// SweepContext is Sweep with cancellation and deadline semantics:
// design points that have not started when ctx is canceled are skipped
// (their SweepResult carries an error matching context.Canceled or
// context.DeadlineExceeded), points already executing observe the
// cancellation at their next workload boundary, and completed points
// keep their results. The ledger still closes with a sweep-done event,
// so a canceled sweep's JSONL stream remains schema-valid.
func SweepContext(ctx context.Context, points []SweepPoint, opt SweepOptions) []SweepResult {
	out := make([]SweepResult, len(points))
	cache := newTraceCache()

	workers := opt.Parallelism
	if workers <= 0 {
		workers = RunConfig{}.parallelismDefault()
	}
	if workers > len(points) {
		workers = len(points)
	}

	// Sweep-level observability: one ledger and one fleet spanning every
	// design point. Point events buffer per point and persist in input
	// order after the fan-out, exactly like Run's per-workload events.
	var led *runlog.Ledger
	var fl *fleet
	var tracker *runlog.Tracker
	children := make([]*runlog.Child, len(points))
	if opt.observed() {
		led = runlog.New(opt.Ledger)
		led.Emit(runlog.SweepStartEvent(len(points)))
		fl = newFleet(len(points), workers, 0)
		for _, pt := range points {
			fl.totalInstrs += pointInstrBudget(pt)
		}
		tracker = runlog.NewTracker(opt.progressInterval, fl.sample, opt.Progress)
		tracker.Attach(led)
		tracker.Start()
	}

	var idx int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := fl.slot(w)
			for {
				mu.Lock()
				n := idx
				idx++
				mu.Unlock()
				if n >= len(points) {
					return
				}
				child := led.Child()
				children[n] = child
				out[n] = runPoint(ctx, points[n], cache, slot)
				var instrs, cycles uint64
				var cpi float64
				var errMsg string
				if r := out[n].Results; r != nil {
					for _, wl := range r.PerWorkload {
						instrs += wl.Instructions
						cycles += wl.Cycles
					}
					cpi = r.CPI()
				}
				if out[n].Err != nil {
					errMsg = out[n].Err.Error()
				}
				child.Emit(runlog.PointDoneEvent(out[n].Label, n, instrs, cycles, cpi, errMsg))
				fl.noteDone(instrs, cycles)
			}
		}(w)
	}
	wg.Wait()

	if led != nil {
		for _, c := range children {
			led.Absorb(c)
		}
		errs := 0
		for _, r := range out {
			if r.Err != nil {
				errs++
			}
		}
		led.Emit(runlog.SweepDoneEvent(len(points), errs))
		tracker.Stop()
	}
	return out
}

// runPoint executes one design point with the shared trace cache,
// reporting progress through the sweep worker's slot (nil when the
// sweep is unobserved).
func runPoint(ctx context.Context, pt SweepPoint, cache *traceCache, slot *workerSlot) SweepResult {
	res := SweepResult{Label: pt.Label}
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("vax780: sweep point %q: run canceled: %w", pt.Label, err)
		return res
	}
	cfg := pt.Config
	if cfg.Telemetry != nil {
		res.Err = fmt.Errorf("vax780: sweep point %q: telemetry cannot be attached to a sweep point", pt.Label)
		return res
	}
	if cfg.Checkpoint != "" {
		res.Err = fmt.Errorf("vax780: sweep point %q: checkpointing cannot be attached to a sweep point", pt.Label)
		return res
	}
	if cfg.Profiler != nil {
		res.Err = fmt.Errorf("vax780: sweep point %q: a profiler cannot be attached to a sweep point (profile the point as its own Run)", pt.Label)
		return res
	}
	// The sweep's concurrency lives at the point level; each point runs
	// its workloads in sequence on its worker.
	cfg.Parallelism = 1
	cfg.traces = cache
	if slot != nil {
		slot.prefix = pt.Label + "/"
		cfg.slot = slot
	}
	res.Results, res.Err = RunContext(ctx, cfg)
	return res
}

// parallelismDefault exposes the default worker count (GOMAXPROCS)
// without needing a filled config.
func (RunConfig) parallelismDefault() int {
	var c RunConfig
	return c.parallelism()
}
