package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vax780"
	"vax780/internal/obs"
	"vax780/internal/runlog"
)

// paperCPI is Table 8's total, the paper's cycles per average
// instruction (internal/paper.Table8Total).
const paperCPI = 10.593

// goldenHist is the composite histogram the simulator must produce at
// one instruction count: the SHA-256 of its SaveHistogram bytes and the
// totals those bytes reduce to.
type goldenHist struct {
	SHA256       string
	Instructions uint64
	Cycles       uint64
	CPI          float64
}

// goldenFS holds the golden composite histograms, gzipped
// SaveHistogram bytes named composite-<instructions per workload>.upch.gz.
//
//go:embed golden/*.upch.gz
var goldenFS embed.FS

// loadGolden returns the golden composite histograms keyed by the
// per-workload instruction count.
func loadGolden() (map[string]goldenHist, error) {
	names, err := fs.Glob(goldenFS, "golden/composite-*.upch.gz")
	if err != nil {
		return nil, err
	}
	out := make(map[string]goldenHist, len(names))
	for _, name := range names {
		f, err := goldenFS.Open(name)
		if err != nil {
			return nil, err
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		raw, err := io.ReadAll(zr)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res, err := vax780.LoadHistogram(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		n := strings.TrimSuffix(strings.TrimPrefix(path.Base(name), "composite-"), ".upch.gz")
		out[n] = goldenHist{SHA256: sha256Hex(raw),
			Instructions: res.Instructions(), Cycles: res.Histogram().TotalCycles(), CPI: res.CPI()}
	}
	return out, nil
}

// compositeConfig is the composite and observed workloads' run: the
// paper's five calibrated workloads, one machine per CPU.
func compositeConfig(instr int) vax780.RunConfig {
	return vax780.RunConfig{Instructions: instr, Parallelism: runtime.NumCPU()}
}

// observers are every observer a run can carry, with their output kept
// in memory.
type observers struct {
	tel    *vax780.Telemetry
	ledger bytes.Buffer
	bus    *runlog.Bus
	rec    *obs.Recorder
	prof   *vax780.Profiler
}

// attachAll attaches fresh observers of every kind to cfg.
func attachAll(cfg *vax780.RunConfig) *observers {
	o := &observers{
		tel:  vax780.NewTelemetry(100_000, 20_000),
		bus:  runlog.NewBus(),
		rec:  obs.NewRecorder("perfbench"),
		prof: &vax780.Profiler{},
	}
	cfg.Telemetry = o.tel
	cfg.FlightDepth = 1024
	cfg.Ledger = &o.ledger
	cfg.Events = o.bus
	cfg.Trace = o.rec
	cfg.Profiler = o.prof
	return o
}

// check verifies that the observers recorded the run: the interval
// series recomposes the histogram's cycle total, and the ledger, span
// trace and profile are non-empty.
func (o *observers) check(res *vax780.Results) error {
	if got, want := o.tel.IntervalCycleTotal(), res.Histogram().TotalCycles(); got != want {
		return fmt.Errorf("telemetry intervals sum to %d cycles, histogram has %d", got, want)
	}
	if err := vax780.ValidateLedger(o.ledger.Bytes()); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	var tr bytes.Buffer
	if err := o.rec.WriteJSONL(&tr); err != nil || tr.Len() == 0 {
		return fmt.Errorf("span trace empty (%v)", err)
	}
	if p := o.prof.Profile(); p == nil {
		return fmt.Errorf("profiler recorded no profile")
	}
	return nil
}

// runComposite runs the composite workload: repeated bare Runs.
func runComposite(b *bench) (*outcome, error) { return runSim(b, false) }

// runObserved runs the same Runs with every observer attached.
func runObserved(b *bench) (*outcome, error) { return runSim(b, true) }

// simRun performs one composite Run, with observers when asked.
func simRun(instr int, observed bool) (*vax780.Results, *observers, error) {
	cfg := compositeConfig(instr)
	var o *observers
	if observed {
		o = attachAll(&cfg)
	}
	res, err := vax780.Run(cfg)
	return res, o, err
}

// histDigest hashes a result's persisted histogram.
func histDigest(res *vax780.Results) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := res.SaveHistogram(&buf); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), sha256Hex(buf.Bytes()), nil
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkHist compares a persisted histogram against the golden one.
func checkHist(digest string, want goldenHist) error {
	if digest != want.SHA256 {
		return fmt.Errorf("histogram digest %s, golden %s", digest, want.SHA256)
	}
	return nil
}

func runSim(b *bench, observed bool) (*outcome, error) {
	o := &outcome{}
	instr := b.size.compositeInstr
	want, ok := b.golden[strconv.Itoa(instr)]
	if !ok {
		return nil, fmt.Errorf("no golden histogram for %d instructions", instr)
	}
	setups, err := probeSetups(b)
	if err != nil {
		return nil, err
	}

	// Untimed warm-up: ROM, fusion plan and traces are ready afterwards.
	warm, _, err := simRun(instr, observed)
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	o.set("cpi_error_pct", cpiErrorPct(warm.CPI()))

	var runs, cpus, hits, rss []float64
	var instrs uint64
	start := time.Now()
	deadline := start.Add(time.Duration(b.seconds * float64(time.Second)))
	for len(runs) < minRuns || time.Now().Before(deadline) {
		o.attempted++
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		c0 := cpuSeconds(clockProcessCPU)
		t0 := time.Now()
		res, obsv, err := simRun(instr, observed)
		dt := time.Since(t0)
		dc := cpuSeconds(clockProcessCPU) - c0
		peak, perr := peakRSSMB(0)
		if perr != nil {
			return nil, perr
		}
		rss = append(rss, peak)
		if err != nil {
			o.fail("run %d: %v", o.attempted, err)
			if o.failed > 3 && len(runs) == 0 {
				return nil, fmt.Errorf("every run fails: %w", err)
			}
			continue
		}
		runs = append(runs, dt.Seconds())
		cpus = append(cpus, dc)
		instrs += res.Instructions()
		raw, digest, err := histDigest(res)
		if err == nil {
			err = checkHist(digest, want)
		}
		if err == nil && observed {
			err = obsv.check(res)
		}
		if err == nil {
			// The hit path: answer the measurement from its stored
			// histogram instead of simulating it again.
			var hit float64
			if hit, err = hitCost(raw, res.CPI()); err == nil {
				hits = append(hits, hit)
			}
		}
		if err != nil {
			o.fail("run %d: %v", o.attempted, err)
		}
	}
	window := time.Since(start).Seconds()

	perRun := float64(instrs) / float64(len(runs))
	cpuP50 := median(cpus)
	tl, pct, ok := tail(cpus)
	if !ok {
		return nil, fmt.Errorf("only %d runs in the window; need 11 for a tail", len(runs))
	}
	o.set("setup_s", median(setups))
	o.set("sim_instr_per_cpu_s", perRun/cpuP50)
	o.set("peak_rss_mb", median(rss))
	o.set("run_cpu_tail_s", tl)
	o.set("hit_cpu_p50_us", median(hits)*1e6)
	o.note("workload %s: %d runs of 5 workloads x %d instructions, Parallelism %d, observers %t",
		b.workload, len(runs), instr, runtime.NumCPU(), observed)
	o.note("inputs: the five calibrated profile seeds (--seed %d does not change them: they are part of the model cpi_error_pct measures)", b.seed)
	o.note("setup_s: median of %d set-ups %v", len(setups), roundAll(setups))
	o.note("Run CPU time: p50 %.4f s; run_cpu_tail_s is p%.1f of %d runs", cpuP50, pct, len(runs))
	o.note("Run wall time (not bounded: host steal moves it): p50 %.4f s, p75 %.4f s, %.0f simulated instr/s, %.2f runs/s",
		median(runs), percentile(runs, 75), perRun/median(runs), float64(len(runs))/window)
	o.note("composite CPI %.4f vs paper %.3f", warm.CPI(), paperCPI)
	return o, nil
}

// hitLoads is how many times each Run's histogram is reloaded. The
// cheapest load counts, so a load that does the collector's marking
// work (an assist) or meets a cold cache does not set the figure.
const hitLoads = 5

// hitCost reloads a persisted histogram hitLoads times, checks its CPI,
// and returns the least CPU time one load took.
func hitCost(raw []byte, cpi float64) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < hitLoads; i++ {
		var loaded *vax780.Results
		var err error
		dt := threadCPU(func() {
			loaded, err = vax780.LoadHistogram(bytes.NewReader(raw))
		})
		if err != nil {
			return 0, err
		}
		if loaded.CPI() != cpi {
			return 0, fmt.Errorf("reloaded CPI %v, run CPI %v", loaded.CPI(), cpi)
		}
		best = min(best, dt)
	}
	return best, nil
}

func cpiErrorPct(cpi float64) float64 {
	d := cpi - paperCPI
	if d < 0 {
		d = -d
	}
	return d / paperCPI * 100
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return out
}

// probeSetups measures set-up time in fresh processes: from exec of
// this binary in probe mode to its "ready" line, which it prints once
// its untimed warm-up Run has finished. Process start, ROM build,
// fusion plan and trace generation all fall inside.
func probeSetups(b *bench) ([]float64, error) {
	var out []float64
	for i := 0; i < b.size.setupProbes; i++ {
		cmd := exec.Command(b.self, "-setup-probe", b.workload, "-size", b.size.name)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		dt := time.Since(t0)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("set-up probe: %q, %v, %v", line, rerr, werr)
		}
		out = append(out, dt.Seconds())
	}
	return out, nil
}

// setupProbe is the probe process: set up as the workload does, then
// report ready.
func setupProbe(workload string, size sizes) error {
	var observed bool
	switch workload {
	case "composite":
	case "observed":
		observed = true
	default:
		return fmt.Errorf("no set-up probe for workload %q", workload)
	}
	if _, _, err := simRun(size.compositeInstr, observed); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}
