// Command vaxprof is the micro-architectural host-time profiler: it
// runs the paper's composite measurement and reports where the
// *simulator's own* wall-clock time goes, attributed to the
// control-store flows of the simulated machine — the exact complement
// of the UPC board, which reports where the *simulated* cycles go.
//
// One engine backs the report: the Profiler attached to the measured
// composite (RunConfig.Profiler) attributes the UPC board's exact
// histogram to control-store flows and prices each flow at its cycle
// share of the measured wall time — the run's own mean ns/cycle. There
// is no per-class host cost model: fitted to timed probes, one
// predicted held-out runs no better than that mean. The same Profiler
// supplies the run ledger's prof event.
//
// The span exports are the measured composite's run trace
// (RunConfig.Trace): run → workload → exact top flows, placed on the
// profiler's wall clock and schema-checked by obs.ValidateSpans.
//
// Usage:
//
//	vaxprof [-n 50000] [-top 15]                   mean-priced hot-flow table
//	vaxprof -diff old.json new.json                compare two saved profiles
//	vaxprof -o prof.json                           also save the profile JSON
//	vaxprof -chrome trace.json -spans spans.jsonl  run trace exports (run→workload→flow)
//	vaxprof -ledger run.jsonl                      also write the run ledger JSONL
//
// Exit codes: 0 on success, 1 on any failure, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"vax780"
	"vax780/internal/obs"
	"vax780/internal/prof"
)

func main() {
	n := flag.Int("n", 50_000, "instructions per workload")
	top := flag.Int("top", 15, "flows to print")
	diff := flag.Bool("diff", false, "diff two saved profiles (old.json new.json args) and exit")
	out := flag.String("o", "", "write the profile JSON here")
	chrome := flag.String("chrome", "", "write the run trace (run→workload→flow) as Chrome trace-event JSON here")
	spans := flag.String("spans", "", "write the run trace (run→workload→flow) as JSONL span rows here")
	ledger := flag.String("ledger", "", "write the run ledger JSONL here")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "vaxprof: -diff needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *top))
	}

	if err := run(*n, *top, *out, *chrome, *spans, *ledger); err != nil {
		fmt.Fprintln(os.Stderr, "vaxprof:", err)
		os.Exit(1)
	}
}

// runDiff loads and diffs two saved profiles; returns the exit code.
func runDiff(oldPath, newPath string, top int) int {
	load := func(path string) (*vax780.Profile, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return prof.ReadProfile(f)
	}
	oldP, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxprof:", err)
		return 1
	}
	newP, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxprof:", err)
		return 1
	}
	deltas := prof.DiffProfiles(oldP, newP)
	fmt.Print(prof.RenderDiff(deltas, top, 0.001))
	return 0
}

// run is the measurement path: one discarded warm-up run, then the
// profiled composite at -j 1; print its mean-priced table and write
// whatever exports were requested.
func run(n, top int, out, chrome, spansPath, ledgerPath string) error {
	// The first simulation in a process pays allocator growth and cold
	// caches no later run sees; keep it out of the measured run.
	warm := vax780.RunConfig{
		Instructions: n,
		Workloads:    []vax780.WorkloadID{vax780.TimesharingA},
		Parallelism:  1,
	}
	if _, err := vax780.Run(warm); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}

	p := &vax780.Profiler{MaxFlows: top}
	rec := obs.NewRecorder("vaxprof")
	cfg := vax780.RunConfig{Instructions: n, Parallelism: 1, Profiler: p, Trace: rec}
	var led *os.File
	if ledgerPath != "" {
		f, err := os.Create(ledgerPath)
		if err != nil {
			return err
		}
		led, cfg.Ledger = f, f
	}
	runtime.GC() // keep the warm-up's garbage out of the measured window
	_, err := vax780.Run(cfg)
	if led != nil {
		if cerr := led.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	pr := p.Profile()
	if pr == nil {
		return fmt.Errorf("the run published no profile")
	}
	fmt.Print(pr.Table(top))
	return writeExports(rec, pr, out, chrome, spansPath)
}

// writeExports emits the requested files after the measured run: the
// profile, and the run's trace in Chrome and JSONL form.
func writeExports(rec *obs.Recorder, pr *vax780.Profile, out, chrome, spansPath string) error {
	if out != "" {
		if err := writeFile(out, pr.WriteJSON); err != nil {
			return err
		}
	}
	if chrome != "" {
		err := writeFile(chrome, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, rec.TraceID(), rec.Root())
		})
		if err != nil {
			return err
		}
	}
	if spansPath != "" {
		if err := writeFile(spansPath, rec.WriteJSONL); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
