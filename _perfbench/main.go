// Command perfbench is the repository's layered benchmark. It drives
// the simulator through the public vax780.Run API and the vaxd service
// through its HTTP surface, and reaches the inner layers only by
// calling their exported functions.
//
//	perfbench --workload composite --seed 1 --seconds 20 --trace 0
//
// Three workloads: composite (the paper's five calibrated workloads,
// bare), observed (the same runs with every observer attached) and
// vaxd-mixed (an open-loop job stream against a vaxd subprocess, then a
// closing burst). With --trace 0 the last line of standard output is a
// JSON object holding the workload's end-to-end metrics; with --trace 1 a
// separately invoked traced run prints every per-layer metric and
// writes its span JSONL. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// simMetrics lists the end-to-end metrics of composite and observed,
// the workloads BENCHMARK.json lists, in its order. Their timings are
// CPU time, not wall time: on a few vCPUs of a shared host the time the
// hypervisor gives to other guests (steal) moves wall-clock Run times by
// more than a quarter between runs, and CPU time leaves it out.
var simMetrics = []metricDef{
	{"setup_s", "s"},
	{"sim_instr_per_cpu_s", "1/s"},
	{"cpi_error_pct", "%"},
	{"peak_rss_mb", "MB"},
	{"run_cpu_tail_s", "s"},
	{"hit_cpu_p50_us", "us"},
}

// serviceMetrics lists vaxd-mixed's metrics: service latency and
// capacity, which only wall time can give. vaxd-mixed is not listed in
// BENCHMARK.json (README: Steadiness).
var serviceMetrics = []metricDef{
	{"setup_s", "s"},
	{"sim_instr_per_s", "1/s"},
	{"cpi_error_pct", "%"},
	{"peak_rss_mb", "MB"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
	{"hit_p50_s", "s"},
	{"burst_jobs_per_s", "1/s"},
}

// workloadDef is a workload's untraced measurement and the metrics it
// prints.
type workloadDef struct {
	measure func(*bench) (*outcome, error)
	metrics []metricDef
}

var workloads = map[string]workloadDef{
	"composite":  {runComposite, simMetrics},
	"observed":   {runObserved, simMetrics},
	"vaxd-mixed": {runVaxdMixed, serviceMetrics},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload or the traced run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	notes             []string // human-readable lines printed before the JSON
}

func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = make(map[string]float64)
	}
	o.values[name] = v
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note("FAIL: "+format, args...)
}

// bench carries the run's settings.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	work     string // output directory inside the checkout (span files)
	scratch  string // this run's own directory under work, removed when it ends
	vaxd     string // vaxd binary
	self     string // this binary, re-executed for set-up probes
	size     sizes
	golden   map[string]goldenHist
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: composite, observed or vaxd-mixed")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
		work    = flag.String("work", ".bench_build/perfbench/work", "scratch directory")
		vaxd    = flag.String("vaxd", ".bench_build/perfbench/vaxd", "vaxd binary")
		probe   = flag.String("setup-probe", "", "internal: set up the named workload, print ready, exit")
		size    = flag.String("size", "full", "input sizes: full, or tiny for the self-test")
	)
	flag.Parse()
	sz, ok := sizesByName[*size]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -size %q\n", *size)
		os.Exit(2)
	}
	if *probe != "" {
		if err := setupProbe(*probe, sz); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*wl, *seed, *seconds, *trace, *work, *vaxd, sz); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, seconds float64, trace int, work, vaxd string, sz sizes) error {
	def, ok := workloads[wl]
	if !ok {
		return fmt.Errorf("unknown workload %q (composite, observed, vaxd-mixed)", wl)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	b, err := newBench(wl, seed, seconds, work, vaxd, sz)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.scratch)
	defs := def.metrics
	var out *outcome
	if trace == 1 {
		defs = perLayer
		out, err = runTraced(b)
	} else {
		out, err = def.measure(b)
	}
	if err != nil {
		return err
	}
	res, err := out.result(defs)
	if err != nil {
		return err
	}
	for _, line := range out.notes {
		fmt.Println(line)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

func newBench(wl string, seed int64, seconds float64, work, vaxd string, size sizes) (*bench, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if work, err = filepath.Abs(work); err != nil {
		return nil, err
	}
	if vaxd, err = filepath.Abs(vaxd); err != nil {
		return nil, err
	}
	scratch := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	return &bench{workload: wl, seed: seed, seconds: seconds, work: work, scratch: scratch,
		vaxd: vaxd, self: self, size: size, golden: golden}, nil
}

// result checks that every defined metric was measured and builds the
// printed object; a missing metric is a benchmark bug, not a failure of
// the program under test.
func (o *outcome) result(defs []metricDef) (*result, error) {
	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	var missing []string
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	o.note("failed_frac: %d/%d = %.6f", o.failed, o.attempted, float64(o.failed)/float64(o.attempted))
	return res, nil
}

// sizes fixes every input size and repetition count of a run.
type sizes struct {
	name           string
	compositeInstr int // instructions per workload in composite, observed and the calibration job
	setupProbes    int // set-ups measured per run; setup_s is their median
	serviceProbes  int // the same for vaxd-mixed, whose set-up is short

	jobInstr      int           // vaxd-mixed cold single-workload job length
	overflowInstr []int         // lengths that overflow the 8-entry trace cache
	sweepInstr    int           // sweep job length
	sweepPoints   int           // design points per sweep job
	rate          float64       // open-loop arrivals per second
	hitLag        time.Duration // a resubmission follows its original's schedule by at least this
	openShare     float64       // share of --seconds the open loop is planned for
	burstJobs     int           // jobs per closing burst (within queueDepth)
	bursts        int

	// Traced-run cells.
	fixedN, cycleN   int // n of the n/2n differentials: fixed cost, per-cycle cost
	fixedPairs       int
	cyclePairs       int
	cellInstr        int // one-workload cell length (fusion, observers)
	observerPairs    int
	j2Instr, j2Pairs int
	reps             int // repetitions of the small per-layer calls
	cellJobs         int // jobs of the in-process and HTTP job cells
}

const (
	// minRuns is the fewest Runs a composite or observed run makes,
	// whatever --seconds says: a tail needs ten samples beyond it.
	minRuns = 11

	// queueDepth is vaxd's admission queue, deep enough for a burst.
	queueDepth = 64

	// fusionPairs is the number of interleaved fused/NoFusion pairs per
	// cell, the repository's standard for adjudicating fusion.
	fusionPairs = 12

	// tracedShare is the share of --seconds the traced run spends on the
	// workload's own operations before its cells.
	tracedShare = 0.25
)

var sizesByName = map[string]sizes{
	"full": {
		name: "full", compositeInstr: 50_000, setupProbes: 7, serviceProbes: 15,
		jobInstr: 20_000, overflowInstr: []int{19_000, 19_500, 20_500, 21_000, 21_500, 22_000},
		sweepInstr: 8_000, sweepPoints: 3, rate: 6, hitLag: 2 * time.Second, openShare: 0.8,
		burstJobs: 60, bursts: 4,
		fixedN: 1_000, cycleN: 10_000, fixedPairs: 60, cyclePairs: 16,
		cellInstr: 10_000, observerPairs: 8,
		j2Instr: 20_000, j2Pairs: 6, reps: 20, cellJobs: 36,
	},
	"tiny": {
		name: "tiny", compositeInstr: 2_000, setupProbes: 2, serviceProbes: 2,
		jobInstr: 1_000, overflowInstr: []int{1_100, 1_200, 1_300},
		sweepInstr: 1_000, sweepPoints: 2, rate: 40, hitLag: 500 * time.Millisecond, openShare: 1,
		burstJobs: 4, bursts: 1,
		fixedN: 500, cycleN: 1_000, fixedPairs: 4, cyclePairs: 2,
		cellInstr: 1_000, observerPairs: 2,
		j2Instr: 1_000, j2Pairs: 2, reps: 3, cellJobs: 20,
	},
}
