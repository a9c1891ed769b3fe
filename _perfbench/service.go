package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"vax780"
	"vax780/internal/jobs"
)

// doneTimeout bounds how long a job may take before it counts as
// failed.
const doneTimeout = 60 * time.Second

// op is one submission's outcome.
type op struct {
	pj      *plannedJob
	id      string
	due     time.Time // scheduled send time
	sent    time.Time
	replied time.Time
	ev      doneEv  // cold jobs: the job-done event
	latency float64 // cold: due to job-done; hit: due to reply (seconds)
	req     string  // request ID: the job's index in its plan
	span    int     // the job's span, when recording
	err     error
}

// drive submits plan against t — open loop when the plan carries send
// times, all at once otherwise — and waits for every cold job's
// job-done event. Spans, when recording, get one per job with the
// submission as its child.
func drive(t target, plan []plannedJob, sp *spans, layer string) []*op {
	ops := make([]*op, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range plan {
		pj := &plan[i]
		o := &op{pj: pj, due: start.Add(pj.at), req: strconv.Itoa(i)}
		ops[i] = o
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		o.sent = time.Now()
		job, code, err := t.submit(pj.spec)
		o.replied = time.Now()
		o.id = job.ID
		if !pj.kind.cold() {
			o.latency = o.replied.Sub(o.due).Seconds()
			switch {
			case err != nil:
				o.err = err
			case code != http.StatusOK || !job.Cached:
				o.err = fmt.Errorf("resubmission answered %d cached=%t", code, job.Cached)
			case job.Key != pj.key:
				o.err = fmt.Errorf("resubmission key %s, original %s", job.Key, pj.key)
			}
			o.span = sp.add(0, layer+".hit", o.req, o.due, o.replied)
			sp.add(o.span, layer+".submit", o.req, o.sent, o.replied)
			continue
		}
		switch {
		case err != nil:
			o.err = err
			continue
		case code != http.StatusAccepted || job.Cached:
			o.err = fmt.Errorf("cold job answered %d cached=%t", code, job.Cached)
			continue
		case job.Key != pj.key:
			o.err = fmt.Errorf("job key %s, computed %s", job.Key, pj.key)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, err := t.done().wait(o.id, doneTimeout)
			if err != nil {
				o.err = err
				return
			}
			o.ev = ev
			o.latency = ev.at.Sub(o.due).Seconds()
			if ev.State != "done" || ev.Cached {
				o.err = fmt.Errorf("job %s ended %s cached=%t: %s", o.id, ev.State, ev.Cached, ev.Cause)
			}
		}()
	}
	wg.Wait()
	for _, o := range ops {
		if o.pj.kind.cold() && !o.ev.at.IsZero() {
			o.span = sp.add(0, layer+".job", o.req, o.due, o.ev.at)
			sp.add(o.span, layer+".submit", o.req, o.sent, o.replied)
		}
	}
	return ops
}

// coldLatencies returns the latencies of the cold jobs that succeeded.
func coldLatencies(ops []*op) []float64 {
	var out []float64
	for _, o := range ops {
		if o.pj.kind.cold() && o.err == nil {
			out = append(out, o.latency)
		}
	}
	return out
}

// hitLatencies returns the latencies of the resubmissions that were
// answered from the cache.
func hitLatencies(ops []*op) []float64 {
	var out []float64
	for _, o := range ops {
		if !o.pj.kind.cold() && o.err == nil {
			out = append(out, o.latency)
		}
	}
	return out
}

// lags returns how late the generator sent each submission, in
// seconds.
func lags(ops []*op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.sent.Sub(o.due).Seconds()
	}
	return out
}

// specConfig mirrors the service's reduction of a single-run spec to a
// RunConfig, for the in-process reference.
func specConfig(s jobs.Spec) (vax780.RunConfig, error) {
	var ids []vax780.WorkloadID
	for _, name := range s.Workloads {
		id, err := vax780.WorkloadByName(name)
		if err != nil {
			return vax780.RunConfig{}, err
		}
		ids = append(ids, id)
	}
	return vax780.RunConfig{
		Instructions:     s.Instructions,
		Workloads:        ids,
		CacheBytes:       s.CacheBytes,
		CacheWays:        s.CacheWays,
		TBEntries:        s.TBEntries,
		MissLatency:      s.MissLatency,
		WriteBusy:        s.WriteBusy,
		CtxSwitchHeadway: s.CtxSwitchHeadway,
		OverlapDecode:    s.OverlapDecode,
		Parallelism:      1,
	}, nil
}

// reference computes a spec's totals in-process: a Run, or for a sweep
// the sum over its points.
func reference(s jobs.Spec) (instr, cycles uint64, err error) {
	base, err := specConfig(s)
	if err != nil {
		return 0, 0, err
	}
	if !s.IsSweep() {
		res, err := vax780.Run(base)
		if err != nil {
			return 0, 0, err
		}
		return res.Instructions(), res.Histogram().TotalCycles(), nil
	}
	pts := make([]vax780.SweepPoint, len(s.Points))
	for i, p := range s.Points {
		cfg := base
		cfg.CacheBytes, cfg.CacheWays, cfg.TBEntries = p.CacheBytes, p.CacheWays, p.TBEntries
		cfg.MissLatency, cfg.WriteBusy = p.MissLatency, p.WriteBusy
		pts[i] = vax780.SweepPoint{Label: p.Label, Config: cfg}
	}
	for _, r := range vax780.Sweep(pts, vax780.SweepOptions{Parallelism: 1}) {
		if r.Err != nil {
			return 0, 0, r.Err
		}
		instr += r.Results.Instructions()
		cycles += r.Results.Histogram().TotalCycles()
	}
	return instr, cycles, nil
}

// bundleMeta is the part of a bundle's meta.json the check reads.
type bundleMeta struct {
	Key          string `json:"key"`
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
}

// checkBundle compares a bundle's meta.json against the in-process
// reference totals for its spec.
func checkBundle(meta []byte, key string, instr, cycles uint64) error {
	var m bundleMeta
	if err := json.Unmarshal(meta, &m); err != nil {
		return fmt.Errorf("bundle %s meta.json: %w", key, err)
	}
	if m.Key != key || m.Instructions != instr || m.Cycles != cycles {
		return fmt.Errorf("bundle %s: meta key %s, %d instructions, %d cycles; reference %d, %d",
			key, m.Key, m.Instructions, m.Cycles, instr, cycles)
	}
	return nil
}

// references computes every distinct cold spec's totals, one Run per
// CPU at a time.
func references(ops []*op) map[string][2]uint64 {
	specs := make(map[string]jobs.Spec)
	for _, o := range ops {
		if o.pj.kind.cold() && o.err == nil {
			specs[o.pj.key] = o.pj.spec
		}
	}
	type item struct {
		key  string
		spec jobs.Spec
	}
	work := make(chan item)
	var mu sync.Mutex
	out := make(map[string][2]uint64, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				in, cy, err := reference(it.spec)
				if err != nil {
					continue // a missing reference fails the bundle check
				}
				mu.Lock()
				out[it.key] = [2]uint64{in, cy}
				mu.Unlock()
			}
		}()
	}
	for k, s := range specs {
		work <- item{k, s}
	}
	close(work)
	wg.Wait()
	return out
}

// runVaxdMixed runs the service workload: an open-loop job stream
// against a fresh vaxd, then closing bursts, then the calibration job.
func runVaxdMixed(b *bench) (*outcome, error) {
	o := &outcome{}
	sz := b.size
	st := newStream(b.seed, sz)
	nOpen := max(int(sz.rate*b.seconds*sz.openShare), 1)
	plan, err := st.openLoop(nOpen)
	if err != nil {
		return nil, err
	}
	var bursts [][]plannedJob
	for i := 0; i < sz.bursts; i++ {
		bp, err := st.burst(sz.burstJobs)
		if err != nil {
			return nil, err
		}
		bursts = append(bursts, bp)
	}
	calib := plannedJob{kind: kindCalib, spec: jobs.Spec{Instructions: sz.compositeInstr}}
	if err := calib.setKey(); err != nil {
		return nil, err
	}
	describeInputs(o, plan)

	// Start from a clean page cache: writeback left by earlier runs
	// would otherwise land inside this run's fsyncs.
	syscall.Sync()

	// Set-up: exec to first healthy /healthz, several times; the last
	// instance serves the run.
	var setups []float64
	var proc *vaxdProc
	var data string
	undrained := 0
	for i := 0; i < sz.serviceProbes; i++ {
		if proc != nil {
			// A set-up instance is stopped as soon as it is healthy.
			// Dying on that SIGTERM loses no job, so it is noted, not
			// failed.
			if err := proc.stop(); errors.Is(err, errUndrained) {
				undrained++
			} else if err != nil {
				return nil, err
			}
			if err := os.RemoveAll(data); err != nil {
				return nil, err
			}
		}
		data = filepath.Join(b.scratch, fmt.Sprintf("vaxd-%d", i))
		var d time.Duration
		proc, d, err = startVaxd(b.vaxd, data)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			proc.stop()
		}
	}()
	tgt, err := newHTTPTarget(proc.addr)
	if err != nil {
		return nil, err
	}
	defer tgt.stop()

	ops := drive(tgt, plan, nil, "vaxd")
	var burstRates, burstInstrRates []float64
	for _, bp := range bursts {
		syscall.Sync() // each burst starts with no writeback pending
		t0 := time.Now()
		bops := drive(tgt, bp, nil, "vaxd")
		var last time.Time
		var instrs uint64
		for _, bo := range bops {
			if bo.ev.at.After(last) {
				last = bo.ev.at
			}
			instrs += bo.ev.Instructions
		}
		dur := last.Sub(t0).Seconds()
		if dur > 0 {
			burstRates = append(burstRates, float64(len(bops))/dur)
			burstInstrRates = append(burstInstrRates, float64(instrs)/dur)
		}
		ops = append(ops, bops...)
	}
	cops := drive(tgt, []plannedJob{calib}, nil, "vaxd")
	ops = append(ops, cops...)

	// Fetch every cold bundle's meta.json before stopping the service.
	metas := make(map[string][]byte)
	for _, op := range ops {
		if op.pj.kind.cold() && op.err == nil {
			if _, ok := metas[op.pj.key]; !ok {
				data, err := tgt.get("/results/" + op.pj.key + "/meta.json")
				if err != nil {
					op.err = err
					continue
				}
				metas[op.pj.key] = data
			}
		}
	}
	rss, err := peakRSSMB(proc.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	tgt.stop()
	stopped = true
	if err := proc.stop(); err != nil {
		return nil, fmt.Errorf("stopping vaxd: %w", err)
	}
	if err := os.RemoveAll(data); err != nil {
		return nil, err
	}

	// Correctness, outside the timed window: every bundle against an
	// in-process reference for its spec.
	refs := references(ops)
	for _, op := range ops {
		if op.pj.kind.cold() && op.err == nil {
			ref, ok := refs[op.pj.key]
			if !ok {
				op.err = fmt.Errorf("no in-process reference for %s", op.pj.key)
				continue
			}
			op.err = checkBundle(metas[op.pj.key], op.pj.key, ref[0], ref[1])
		}
	}
	if want, ok := b.golden[strconv.Itoa(sz.compositeInstr)]; ok && cops[0].err == nil {
		if ev := cops[0].ev; ev.Instructions != want.Instructions || ev.Cycles != want.Cycles {
			cops[0].err = fmt.Errorf("calibration job %d instructions, %d cycles; golden %d, %d",
				ev.Instructions, ev.Cycles, want.Instructions, want.Cycles)
		}
	}
	for _, op := range ops {
		o.attempted++
		if op.err != nil {
			o.fail("%s job %s: %v", op.pj.kind, op.id, op.err)
		}
	}

	cold := coldLatencies(ops[:len(plan)])
	tl, pct, ok := tail(cold)
	if !ok {
		return nil, fmt.Errorf("only %d cold jobs completed; need 11 for a tail", len(cold))
	}
	hits := hitLatencies(ops[:len(plan)])
	if len(hits) == 0 || len(burstRates) == 0 {
		return nil, fmt.Errorf("no resubmission (%d) or burst (%d) completed", len(hits), len(burstRates))
	}
	lag := lags(ops[:len(plan)])
	o.set("setup_s", median(setups))
	o.set("sim_instr_per_s", median(burstInstrRates))
	o.set("cpi_error_pct", cpiErrorPct(cops[0].ev.CPI))
	o.set("peak_rss_mb", rss)
	o.set("job_p50_s", median(cold))
	o.set("job_tail_s", tl)
	o.set("hit_p50_s", median(hits))
	o.set("burst_jobs_per_s", median(burstRates))
	o.note("workload vaxd-mixed: %d workers, open loop at %.1f jobs/s, %d bursts of %d jobs",
		runtime.NumCPU(), sz.rate, len(bursts), sz.burstJobs)
	o.note("setup_s: median of %d vaxd starts %v", len(setups), roundAll(setups))
	if undrained > 0 {
		o.note("vaxd: %d of %d set-up instances: %v", undrained, len(setups)-1, errUndrained)
	}
	o.note("job_tail_s: p%.1f of %d cold jobs; hit_p50_s of %d resubmissions", pct, len(cold), len(hits))
	o.note("cold job latency: p25 %.2f ms, p50 %.2f ms, p75 %.2f ms; bursts %v jobs/s",
		percentile(cold, 25)*1e3, median(cold)*1e3, percentile(cold, 75)*1e3, roundAll(burstRates))
	o.note("generator lag: p50 %.3f ms, p99 %.3f ms, max %.3f ms",
		median(lag)*1e3, percentile(lag, 99)*1e3, percentile(lag, 100)*1e3)
	o.note("calibration job CPI %.4f vs paper %.3f", cops[0].ev.CPI, paperCPI)
	return o, nil
}
