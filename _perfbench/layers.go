package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"vax780"
	"vax780/internal/castore"
	"vax780/internal/jobs"
	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/obs"
	"vax780/internal/runlog"
	"vax780/internal/workload"
)

// perLayer lists the traced run's metrics, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"vax780.run_fixed_ms", "ms"},
	{"vax780.run_fixed_allocs", "count"},
	{"vax780.run_fixed_kb", "KB"},
	{"vax780.ns_per_cycle", "ns"},
	{"vax780.j2_speedup", "x"},
	{"vax780.block_diagram_us", "us"},
	{"vax780.trace_miss_ms", "ms"},
	{"workload.generate_ns_per_instr.TIMESHARING-A", "ns"},
	{"workload.generate_ns_per_instr.TIMESHARING-B", "ns"},
	{"workload.generate_ns_per_instr.RTE-EDU", "ns"},
	{"workload.generate_ns_per_instr.RTE-SCI", "ns"},
	{"workload.generate_ns_per_instr.RTE-COM", "ns"},
	{"machine.new_us", "us"},
	{"machine.new_allocs", "count"},
	{"ufuse.fused_ns_per_cycle", "ns"},
	{"ufuse.interp_ns_per_cycle", "ns"},
	{"ufuse.gain_pct", "%"},
	{"ufuse.hooks_fused_ns_per_cycle", "ns"},
	{"ufuse.hooks_interp_ns_per_cycle", "ns"},
	{"ufuse.hooks_gain_pct", "%"},
	{"mem.cache_miss_per_instr", "1/instr"},
	{"mem.tb_miss_per_instr", "1/instr"},
	{"mem.read_stall_cpi", "cycles"},
	{"mem.write_stall_cpi", "cycles"},
	{"ibox.ib_stall_cpi", "cycles"},
	{"upc.total_cycles", "count"},
	{"telemetry.ns_per_cycle", "ns"},
	{"runlog.ns_per_cycle", "ns"},
	{"obs.ns_per_cycle", "ns"},
	{"prof.ns_per_cycle", "ns"},
	{"obs.export_ms", "ms"},
	{"report.render_ms", "ms"},
	{"castore.commit_ms", "ms"},
	{"castore.append_us", "us"},
	{"castore.has_us", "us"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.overhead_ms", "ms"},
	{"jobs.hit_us", "us"},
	{"vaxd.http_overhead_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"vax780.self_ms", "ms"},
	{"workload.self_ms", "ms"},
	{"machine.self_ms", "ms"},
	{"report.self_ms", "ms"},
	{"obs.self_ms", "ms"},
	{"castore.self_ms", "ms"},
	{"jobs.self_ms", "ms"},
	{"vaxd.self_ms", "ms"},
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"vax780", "workload", "machine", "report", "obs", "castore", "jobs", "vaxd"}

// tracer is the traced run's state: the span recorder, the outcome the
// cells fill, and the run's settings.
type tracer struct {
	b  *bench
	sp *spans
	o  *outcome
}

// one is a one-workload run configuration of the given length.
func one(instr int) vax780.RunConfig {
	return vax780.RunConfig{Instructions: instr,
		Workloads: []vax780.WorkloadID{vax780.TimesharingA}, Parallelism: 1}
}

// run performs one traced Run under parent.
func (t *tracer) run(parent int, cfg vax780.RunConfig) (*vax780.Results, error) {
	_, end := t.sp.begin(parent, "vax780.run", "")
	defer end()
	t.o.attempted++
	res, err := vax780.Run(cfg)
	if err != nil {
		t.o.fail("run: %v", err)
	}
	return res, err
}

// cell runs one measurement cell under its own span.
func (t *tracer) cell(name string, fn func(parent int) error) error {
	id, end := t.sp.begin(0, "bench."+name, "")
	defer end()
	if err := fn(id); err != nil {
		return fmt.Errorf("cell %s: %w", name, err)
	}
	return nil
}

// runTraced is the traced run: the workload's own operations under
// spans, then every per-layer cell.
func runTraced(b *bench) (*outcome, error) {
	t := &tracer{b: b, sp: newSpans(), o: &outcome{}}
	start := time.Now()
	sz := b.size

	// The traced workload phase, and the modelled components of the
	// composite (identical on every workload).
	warm, err := t.run(0, compositeConfig(sz.compositeInstr))
	if err != nil {
		return nil, err
	}
	t.modelled(warm)
	if b.workload != "vaxd-mixed" {
		if err := t.cell("workload", t.tracedSim); err != nil {
			return nil, err
		}
	}

	cells := []struct {
		name string
		fn   func(int) error
	}{
		{"fixed", t.fixedCost},
		{"per-cycle", t.perCycle},
		{"j2", t.j2},
		{"block-diagram", t.blockDiagram},
		{"trace-miss", t.traceMiss},
		{"generate", t.generate},
		{"machine-new", t.machineNew},
		{"fusion", t.fusion},
		{"observers", t.observers},
		{"bundle", t.bundle},
		{"jobs", t.jobStreams},
	}
	for _, c := range cells {
		if err := t.cell(c.name, c.fn); err != nil {
			return nil, err
		}
	}

	wall := time.Since(start)
	perSpan := spanCost()
	n := t.sp.len()
	t.o.set("trace.spans", float64(n))
	t.o.set("trace.overhead_pct", float64(n)*perSpan/float64(wall.Nanoseconds())*100)
	self := t.sp.selfTimes()
	for _, layer := range selfLayers {
		t.o.set(layer+".self_ms", self[layer]*1e3)
	}
	path := filepath.Join(b.work, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	if err := t.sp.writeJSONL(path); err != nil {
		return nil, err
	}
	t.o.note("traced run: %d spans (%.0f ns each) in %.2f s written to %s", n, perSpan, wall.Seconds(), path)
	return t.o, nil
}

// spanCost measures what recording one span costs, in nanoseconds.
func spanCost() float64 {
	s := newSpans()
	const n = 20_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_, end := s.begin(0, "bench.cost", "")
		end()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// modelled reports the simulated counts of the composite: they move
// only when the model does.
func (t *tracer) modelled(res *vax780.Results) {
	cs := res.CacheStudy()
	t.o.set("mem.cache_miss_per_instr", cs.MissPerInstr)
	t.o.set("mem.tb_miss_per_instr", res.TBMiss().MissesPerInstr)
	for _, c := range res.CycleClasses() {
		switch c.Activity {
		case "R-Stall":
			t.o.set("mem.read_stall_cpi", c.Cycles)
		case "W-Stall":
			t.o.set("mem.write_stall_cpi", c.Cycles)
		case "IB-Stall":
			t.o.set("ibox.ib_stall_cpi", c.Cycles)
		}
	}
	t.o.set("upc.total_cycles", float64(res.Histogram().TotalCycles()))
	if _, digest, err := histDigest(res); err != nil {
		t.o.fail("histogram: %v", err)
	} else if want, ok := t.b.golden[strconv.Itoa(t.b.size.compositeInstr)]; ok {
		if err := checkHist(digest, want); err != nil {
			t.o.fail("%v", err)
		}
	}
}

// tracedSim repeats the workload's own Runs under spans and prints the
// traced end-to-end figures beside the untraced run's.
func (t *tracer) tracedSim(parent int) error {
	observed := t.b.workload == "observed"
	var cpus []float64
	var instrs uint64
	deadline := time.Now().Add(time.Duration(t.b.seconds * tracedShare * float64(time.Second)))
	for len(cpus) < 3 || time.Now().Before(deadline) {
		cfg := compositeConfig(t.b.size.compositeInstr)
		if observed {
			attachAll(&cfg)
		}
		c0 := cpuSeconds(clockProcessCPU)
		res, err := t.run(parent, cfg)
		if err != nil {
			return err
		}
		cpus = append(cpus, cpuSeconds(clockProcessCPU)-c0)
		instrs += res.Instructions()
	}
	t.o.note("traced %s: %d runs, sim_instr_per_cpu_s %.0f (compare the untraced run)",
		t.b.workload, len(cpus), float64(instrs)/float64(len(cpus))/median(cpus))
	return nil
}

// fixedCost is the n/2n differential at small n: the fixed cost of one
// Run, in time and allocations.
func (t *tracer) fixedCost(parent int) error {
	n := t.b.size.fixedN
	for _, cfg := range []vax780.RunConfig{one(n), one(2 * n)} { // warm both trace shapes
		if _, err := t.run(parent, cfg); err != nil {
			return err
		}
	}
	a, b, err := pairs(t.b.size.fixedPairs,
		func() error { _, err := t.run(parent, one(n)); return err },
		func() error { _, err := t.run(parent, one(2*n)); return err })
	if err != nil {
		return err
	}
	t.o.set("vax780.run_fixed_ms", (2*median(a)-median(b))*1e3)
	var an, ab, bn, bb []float64
	for i := 0; i < t.b.size.reps; i++ {
		var err1, err2 error
		n1, b1 := allocs(func() { _, err1 = t.run(parent, one(n)) })
		n2, b2 := allocs(func() { _, err2 = t.run(parent, one(2*n)) })
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		an, ab = append(an, float64(n1)), append(ab, float64(b1))
		bn, bb = append(bn, float64(n2)), append(bb, float64(b2))
	}
	t.o.set("vax780.run_fixed_allocs", 2*median(an)-median(bn))
	t.o.set("vax780.run_fixed_kb", (2*median(ab)-median(bb))/1024)
	return nil
}

// perCycle is the n/2n differential at larger n: host time per
// simulated cycle with the fixed cost subtracted.
func (t *tracer) perCycle(parent int) error {
	n := t.b.size.cycleN
	r1, err := t.run(parent, one(n))
	if err != nil {
		return err
	}
	r2, err := t.run(parent, one(2*n))
	if err != nil {
		return err
	}
	a, b, err := pairs(t.b.size.cyclePairs,
		func() error { _, err := t.run(parent, one(n)); return err },
		func() error { _, err := t.run(parent, one(2*n)); return err })
	if err != nil {
		return err
	}
	dc := float64(r2.Histogram().TotalCycles() - r1.Histogram().TotalCycles())
	t.o.set("vax780.ns_per_cycle", (median(b)-median(a))*1e9/dc)
	return nil
}

// j2 is the composite at one and two machines in parallel.
func (t *tracer) j2(parent int) error {
	cfg := func(j int) vax780.RunConfig {
		return vax780.RunConfig{Instructions: t.b.size.j2Instr, Parallelism: j}
	}
	if _, err := t.run(parent, cfg(2)); err != nil {
		return err
	}
	a, b, err := pairs(t.b.size.j2Pairs,
		func() error { _, err := t.run(parent, cfg(1)); return err },
		func() error { _, err := t.run(parent, cfg(2)); return err })
	if err != nil {
		return err
	}
	t.o.set("vax780.j2_speedup", median(a)/median(b))
	return nil
}

// timeReps times fn reps times, each under a span, and returns the
// samples in seconds.
func (t *tracer) timeReps(parent int, name string, reps int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		_, end := t.sp.begin(parent, name, "")
		t.o.attempted++
		t0 := time.Now()
		err := fn()
		out = append(out, time.Since(t0).Seconds())
		end()
		if err != nil {
			t.o.fail("%s: %v", name, err)
			return nil, err
		}
	}
	return out, nil
}

func (t *tracer) blockDiagram(parent int) error {
	xs, err := t.timeReps(parent, "vax780.block_diagram", 5*t.b.size.reps, func() error {
		if vax780.BlockDiagram() == "" {
			return fmt.Errorf("empty block diagram")
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.o.set("vax780.block_diagram_us", median(xs)*1e6)
	return nil
}

// traceMiss prices a never-seen trace shape: a Run of a new length
// minus the same Run again with its trace cached.
func (t *tracer) traceMiss(parent int) error {
	var d []float64
	for k := 0; k < 8; k++ {
		cfg := one(3_001 + 17*k) // lengths no other cell uses
		t0 := time.Now()
		if _, err := t.run(parent, cfg); err != nil {
			return err
		}
		miss := time.Since(t0)
		t0 = time.Now()
		if _, err := t.run(parent, cfg); err != nil {
			return err
		}
		d = append(d, (miss - time.Since(t0)).Seconds())
	}
	t.o.set("vax780.trace_miss_ms", median(d)*1e3)
	return nil
}

// generate prices trace generation for each paper profile.
func (t *tracer) generate(parent int) error {
	instr := 2 * t.b.size.cellInstr
	for _, p := range workload.AllProfiles(instr) {
		xs, err := t.timeReps(parent, "workload.generate", 3, func() error {
			_, err := workload.Generate(p)
			return err
		})
		if err != nil {
			return err
		}
		t.o.set("workload.generate_ns_per_instr."+p.Name, median(xs)*1e9/float64(instr))
	}
	return nil
}

// machineNew prices building one stock machine.
func (t *tracer) machineNew(parent int) error {
	build := func() error {
		if machine.New(machine.Config{Mem: mem.Config{}}, workload.NewProgram()) == nil {
			return fmt.Errorf("nil machine")
		}
		return nil
	}
	xs, err := t.timeReps(parent, "machine.new", t.b.size.reps, build)
	if err != nil {
		return err
	}
	var as []float64
	for i := 0; i < 3; i++ {
		n, _ := allocs(func() { build() })
		as = append(as, float64(n))
	}
	t.o.set("machine.new_us", median(xs)*1e6)
	t.o.set("machine.new_allocs", median(as))
	return nil
}

// fusion compares fused and interpreted runs, bare and under every
// hook, in interleaved pairs.
func (t *tracer) fusion(parent int) error {
	instr := t.b.size.cellInstr
	res, err := t.run(parent, one(instr))
	if err != nil {
		return err
	}
	cycles := float64(res.Histogram().TotalCycles())
	for _, hooks := range []bool{false, true} {
		cfg := func(noFusion bool) vax780.RunConfig {
			c := one(instr)
			c.NoFusion = noFusion
			if hooks {
				attachAll(&c)
			}
			return c
		}
		f, i, err := pairs(fusionPairs,
			func() error { _, err := t.run(parent, cfg(false)); return err },
			func() error { _, err := t.run(parent, cfg(true)); return err })
		if err != nil {
			return err
		}
		prefix := "ufuse."
		if hooks {
			prefix = "ufuse.hooks_"
		}
		fused, interp := median(f)*1e9/cycles, median(i)*1e9/cycles
		t.o.set(prefix+"fused_ns_per_cycle", fused)
		t.o.set(prefix+"interp_ns_per_cycle", interp)
		t.o.set(prefix+"gain_pct", (fused-interp)/interp*100)
		wins := 0
		for k := range f {
			if f[k] < i[k] {
				wins++
			}
		}
		t.o.note("%sgain_pct: fused won %d of %d pairs", prefix, wins, len(f))
	}
	return nil
}

// observers prices each observer attached alone against a bare run.
func (t *tracer) observers(parent int) error {
	instr := t.b.size.cellInstr
	res, err := t.run(parent, one(instr))
	if err != nil {
		return err
	}
	cycles := float64(res.Histogram().TotalCycles())
	attach := map[string]func(*vax780.RunConfig){
		"telemetry": func(c *vax780.RunConfig) {
			c.Telemetry = vax780.NewTelemetry(100_000, 20_000)
			c.FlightDepth = 1024
		},
		"runlog": func(c *vax780.RunConfig) {
			c.Ledger = &bytes.Buffer{}
			c.Events = runlog.NewBus()
		},
		"obs":  func(c *vax780.RunConfig) { c.Trace = obs.NewRecorder("perfbench") },
		"prof": func(c *vax780.RunConfig) { c.Profiler = &vax780.Profiler{} },
	}
	for _, name := range []string{"telemetry", "runlog", "obs", "prof"} {
		with := func() error {
			c := one(instr)
			attach[name](&c)
			_, err := t.run(parent, c)
			return err
		}
		bare, on, err := pairs(t.b.size.observerPairs,
			func() error { _, err := t.run(parent, one(instr)); return err }, with)
		if err != nil {
			return err
		}
		t.o.set(name+".ns_per_cycle", (median(on)-median(bare))*1e9/cycles)
	}
	return nil
}

// bundle prices what a vaxd job does after its run: report rendering,
// trace export, and the castore commit, journal append and lookup.
func (t *tracer) bundle(parent int) error {
	sz := t.b.size
	rec := obs.NewRecorder("perfbench")
	var ledger bytes.Buffer
	cfg := one(sz.jobInstr)
	cfg.Trace, cfg.Ledger = rec, &ledger
	res, err := t.run(parent, cfg)
	if err != nil {
		return err
	}
	var report string
	xs, err := t.timeReps(parent, "report.render", sz.reps, func() error {
		report = res.Report()
		return nil
	})
	if err != nil {
		return err
	}
	t.o.set("report.render_ms", median(xs)*1e3)

	var traceRows []byte
	xs, err = t.timeReps(parent, "obs.export", sz.reps, func() error {
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			return err
		}
		traceRows, err = obs.StripWall(buf.Bytes())
		return err
	})
	if err != nil {
		return err
	}
	t.o.set("obs.export_ms", median(xs)*1e3)

	hist, _, err := histDigest(res)
	if err != nil {
		return err
	}
	files := map[string][]byte{
		"histogram.upch": hist, "report.txt": []byte(report), "trace.jsonl": traceRows,
		"ledger.jsonl": ledger.Bytes(), "meta.json": []byte(`{"key":"perfbench"}` + "\n"),
	}
	store, err := castore.Open(filepath.Join(t.b.scratch, "castore-cell"))
	if err != nil {
		return err
	}
	defer store.Close()
	i := 0
	xs, err = t.timeReps(parent, "castore.commit", sz.reps, func() error {
		i++
		st, err := store.Stage(fmt.Sprintf("s%d-%d", t.b.seed, i))
		if err != nil {
			return err
		}
		for name, data := range files {
			if err := st.WriteFile(name, data); err != nil {
				return err
			}
		}
		return st.Commit(fmt.Sprintf("k%d-%016x", i, time.Now().UnixNano()))
	})
	if err != nil {
		return err
	}
	t.o.set("castore.commit_ms", median(xs)*1e3)
	keys, err := store.Keys()
	if err != nil || len(keys) == 0 {
		return fmt.Errorf("castore has no committed bundle (%v)", err)
	}
	line := runlog.JobDoneEvent("j-000001", keys[0], "done", "", false, 20_000, 231_000, 11.55).JSON()
	xs, err = t.timeReps(parent, "castore.append", 5*sz.reps, func() error { return store.AppendJournal(line) })
	if err != nil {
		return err
	}
	t.o.set("castore.append_us", median(xs)*1e6)
	xs, err = t.timeReps(parent, "castore.has", 20*sz.reps, func() error {
		if !store.Has(keys[0]) {
			return fmt.Errorf("committed key %s not found", keys[0])
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.o.set("castore.has_us", median(xs)*1e6)
	return nil
}

// runnerClock records when the timing Runner and Sweeper start and
// return each job's run, by content address.
type runnerClock struct {
	mu    sync.Mutex
	spans map[string][2]time.Time
	label map[string]string // first sweep point label -> key
}

func (c *runnerClock) note(key string, start, end time.Time) {
	c.mu.Lock()
	c.spans[key] = [2]time.Time{start, end}
	c.mu.Unlock()
}

// jobStreams feeds the seed's job stream to an in-process Manager and,
// at the same schedule, to a vaxd subprocess, and compares the two.
func (t *tracer) jobStreams(parent int) error {
	sz := t.b.size
	n := sz.cellJobs
	if t.b.workload == "vaxd-mixed" {
		n = max(n, int(sz.rate*t.b.seconds*tracedShare))
	}
	plan, err := newStream(t.b.seed, sz).openLoop(n)
	if err != nil {
		return err
	}
	clock := &runnerClock{spans: make(map[string][2]time.Time), label: make(map[string]string)}
	for _, pj := range plan {
		if pj.spec.IsSweep() {
			clock.label[pj.spec.Points[0].Label] = pj.key
		}
	}
	store, err := castore.Open(filepath.Join(t.b.scratch, "jobs-cell"))
	if err != nil {
		return err
	}
	defer store.Close()
	m, err := jobs.New(jobs.Config{
		Store:      store,
		Workers:    runtime.NumCPU(),
		QueueDepth: queueDepth,
		Runner: func(ctx context.Context, cfg vax780.RunConfig) (*vax780.Results, error) {
			t0 := time.Now()
			res, err := vax780.RunContext(ctx, cfg)
			clock.note(cfg.Trace.TraceID(), t0, time.Now())
			return res, err
		},
		Sweeper: func(ctx context.Context, pts []vax780.SweepPoint, opt vax780.SweepOptions) []vax780.SweepResult {
			t0 := time.Now()
			out := vax780.SweepContext(ctx, pts, opt)
			clock.mu.Lock()
			key := clock.label[pts[0].Label]
			clock.mu.Unlock()
			clock.note(key, t0, time.Now())
			return out
		},
	})
	if err != nil {
		return err
	}
	mt := newManagerTarget(m)
	local := drive(mt, plan, t.sp, "jobs")
	var waits, overheads []float64
	for _, op := range local {
		t.o.attempted++
		if op.err != nil {
			t.o.fail("in-process %s job: %v", op.pj.kind, op.err)
			continue
		}
		if !op.pj.kind.cold() {
			continue
		}
		clock.mu.Lock()
		rs, ok := clock.spans[op.pj.key]
		clock.mu.Unlock()
		if !ok {
			t.o.fail("in-process job %s: runner never called", op.id)
			continue
		}
		t.sp.add(op.span, "vax780.run", op.req, rs[0], rs[1])
		waits = append(waits, rs[0].Sub(op.replied).Seconds())
		overheads = append(overheads, op.ev.at.Sub(rs[1]).Seconds())
	}
	var hits []float64
	for _, op := range local {
		if op.pj.kind.cold() && op.err == nil && !op.pj.spec.IsSweep() && len(hits) < sz.reps {
			xs, err := t.timeReps(parent, "jobs.hit", 1, func() error {
				j, err := m.Submit(op.pj.spec)
				if err == nil && !j.Cached {
					err = fmt.Errorf("resubmission of %s not cached", op.pj.key)
				}
				return err
			})
			if err != nil {
				mt.stop()
				m.Close()
				return err
			}
			hits = append(hits, xs[0])
		}
	}
	mt.stop()
	m.Close()
	t.o.set("jobs.queue_wait_ms", median(waits)*1e3)
	t.o.set("jobs.overhead_ms", median(overheads)*1e3)
	t.o.set("jobs.hit_us", median(hits)*1e6)

	proc, _, err := startVaxd(t.b.vaxd, filepath.Join(t.b.scratch, "vaxd-cell"))
	if err != nil {
		return err
	}
	tgt, err := newHTTPTarget(proc.addr)
	if err != nil {
		proc.stop()
		return err
	}
	remote := drive(tgt, plan, t.sp, "vaxd")
	tgt.stop()
	if err := proc.stop(); err != nil {
		return fmt.Errorf("stopping vaxd: %w", err)
	}
	for _, op := range remote {
		t.o.attempted++
		if op.err != nil {
			t.o.fail("vaxd %s job: %v", op.pj.kind, op.err)
		}
	}
	lag := lags(remote)
	t.o.set("vaxd.http_overhead_ms", (median(coldLatencies(remote))-median(coldLatencies(local)))*1e3)
	t.o.set("loadgen.lag_p99_ms", percentile(lag, 99)*1e3)
	t.o.note("job cells: %d jobs each; cold p50 in-process %.2f ms, over HTTP %.2f ms",
		len(plan), median(coldLatencies(local))*1e3, median(coldLatencies(remote))*1e3)
	return nil
}
