package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vax780/internal/jobs"
)

// binaries builds the benchmark and vaxd once per test process.
var binaries = struct {
	once            sync.Once
	dir, bench, vxd string
	err             error
}{}

func build(t *testing.T) (bench, vaxd string) {
	t.Helper()
	binaries.once.Do(func() {
		binaries.dir, binaries.err = os.MkdirTemp("", "perfbench-test")
		if binaries.err != nil {
			return
		}
		binaries.bench = filepath.Join(binaries.dir, "perfbench")
		binaries.vxd = filepath.Join(binaries.dir, "vaxd")
		for _, args := range [][]string{
			{"build", "-o", binaries.bench, "."},
			{"build", "-o", binaries.vxd, "vax780/cmd/vaxd"},
		} {
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				binaries.err = err
				binaries.bench = string(out)
				return
			}
		}
	})
	if binaries.err != nil {
		t.Fatalf("building: %v\n%s", binaries.err, binaries.bench)
	}
	return binaries.bench, binaries.vxd
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binaries.dir != "" {
		os.RemoveAll(binaries.dir)
	}
	os.Exit(code)
}

// benchmarkJSON is the part of BENCHMARK.json the self-test compares.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: %s %s here, %s %s in BENCHMARK.json",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("per_layer", perLayer, b.PerLayer)
	// vaxd-mixed is implemented but not listed (README: Steadiness).
	for _, w := range b.Workloads {
		def, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
			continue
		}
		check("end_to_end of "+w.Name, def.metrics, b.EndToEnd)
	}
}

// invoke runs the benchmark binary at tiny sizes and parses its result.
func invoke(t *testing.T, workload string, trace int) (*result, string) {
	t.Helper()
	bench, vaxd := build(t)
	work := t.TempDir()
	cmd := exec.Command(bench, "--workload", workload, "--seed", "3", "--seconds", "2",
		"--trace", strconv.Itoa(trace), "-size", "tiny", "-work", work, "-vaxd", vaxd)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v\n%s\n%s", workload, err, out, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%t failed=%d attempted=%d\n%s", workload, res.Correct, res.Failed, res.Attempted, out)
	}
	return &res, work
}

// checkMetrics verifies the printed metrics are exactly defs, by name
// and unit, with finite values.
func checkMetrics(t *testing.T, workload string, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d defined", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, d.Name, m.Value)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	wantCPIErr := cpiErrorPct(golden[strconv.Itoa(sizesByName["tiny"].compositeInstr)].CPI)
	for _, wl := range []string{"composite", "observed", "vaxd-mixed"} {
		t.Run(wl, func(t *testing.T) {
			res, _ := invoke(t, wl, 0)
			defs := workloads[wl].metrics
			checkMetrics(t, wl, res, defs)
			if got := res.Metrics["cpi_error_pct"].Value; got != wantCPIErr {
				t.Errorf("%s: cpi_error_pct %v, golden histogram gives %v", wl, got, wantCPIErr)
			}
			for _, d := range defs {
				if v := res.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl, d.Name, v)
				}
			}
		})
	}
}

func TestTracedTiny(t *testing.T) {
	res, work := invoke(t, "composite", 1)
	checkMetrics(t, "traced", res, perLayer)
	data, err := os.ReadFile(filepath.Join(work, "spans-composite-seed3.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var sp span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if sp.End < sp.Start {
			t.Errorf("span %d %s ends before it starts", sp.ID, sp.Name)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"vax780.run", "workload.generate", "machine.new", "castore.commit",
		"jobs.job", "jobs.submit", "vaxd.job", "vaxd.submit", "report.render", "obs.export"} {
		if !names[want] {
			t.Errorf("no %s span recorded", want)
		}
	}
}

// TestPerturbedHistogramFails shows a histogram that differs from the
// golden one by one byte is a counted failure, in the check and in a
// composite run whose golden digest is perturbed.
func TestPerturbedHistogramFails(t *testing.T) {
	f, err := goldenFS.Open("golden/composite-2000.upch.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := golden["2000"]
	if err := checkHist(sha256Hex(raw), want); err != nil {
		t.Fatalf("golden histogram rejected: %v", err)
	}
	raw[len(raw)/2] ^= 1
	if err := checkHist(sha256Hex(raw), want); err == nil {
		t.Fatal("perturbed histogram accepted")
	}

	bench, vaxd := build(t)
	b, err := newBench("composite", 1, 0.2, t.TempDir(), vaxd, sizesByName["tiny"])
	if err != nil {
		t.Fatal(err)
	}
	b.self = bench
	bad := b.golden["2000"]
	bad.SHA256 = sha256Hex(raw)
	b.golden["2000"] = bad
	o, err := runComposite(b)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != o.attempted || o.attempted == 0 {
		t.Fatalf("perturbed golden digest: %d of %d runs failed, want all", o.failed, o.attempted)
	}
	r, err := o.result(simMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct {
		t.Error("result reads correct with every histogram mismatched")
	}
}

func TestPerturbedBundleFails(t *testing.T) {
	meta := []byte(`{"key":"00ff","instructions":2000,"cycles":23000,"cpi":11.5}`)
	if err := checkBundle(meta, "00ff", 2000, 23000); err != nil {
		t.Fatalf("matching bundle rejected: %v", err)
	}
	for _, c := range []struct {
		key           string
		instr, cycles uint64
	}{{"00ff", 2000, 23001}, {"00ff", 1999, 23000}, {"0100", 2000, 23000}} {
		if err := checkBundle(meta, c.key, c.instr, c.cycles); err == nil {
			t.Errorf("bundle accepted against reference %+v", c)
		}
	}
}

// fakeTarget answers every submission as a fresh job that completes at
// once, so a resubmission is never served from the cache.
type fakeTarget struct {
	board *doneBoard
	seq   int
}

func (f *fakeTarget) done() *doneBoard { return f.board }

func (f *fakeTarget) submit(spec jobs.Spec) (jobs.Job, int, error) {
	f.seq++
	key, err := spec.Key()
	if err != nil {
		return jobs.Job{}, 0, err
	}
	id := fmt.Sprintf("j-%d", f.seq)
	ev, _ := json.Marshal(doneEv{ID: id, Key: key, State: "done", Instructions: 1, Cycles: 11})
	f.board.post(ev, time.Now())
	return jobs.Job{ID: id, Key: key, State: jobs.StateQueued}, http.StatusAccepted, nil
}

func TestUncachedResubmissionFails(t *testing.T) {
	st := newStream(1, sizesByName["tiny"])
	plan, err := st.burst(1)
	if err != nil {
		t.Fatal(err)
	}
	plan = append(plan, plannedJob{kind: kindHit, spec: plan[0].spec, key: plan[0].key})
	ops := drive(&fakeTarget{board: newDoneBoard()}, plan, nil, "fake")
	if ops[0].err != nil {
		t.Fatalf("cold job failed: %v", ops[0].err)
	}
	if ops[1].err == nil {
		t.Fatal("resubmission answered without the cache was accepted")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (%t), want 90 at p90", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("tail of 10 samples has no percentile with ten beyond it")
	}
}

func TestSelfTimes(t *testing.T) {
	s := newSpans()
	t0 := s.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	job := s.add(0, "jobs.job", "1", at(0), at(100))
	s.add(job, "jobs.submit", "1", at(0), at(10))
	s.add(job, "vax780.run", "1", at(20), at(80))
	s.add(job, "vax780.run", "1", at(70), at(90)) // overlaps the first run
	self := s.selfTimes()
	// The job's 20 ms outside its children, plus the submission's 10.
	if got := self["jobs"] * 1e3; math.Abs(got-30) > 1e-6 {
		t.Errorf("jobs self time %v ms, want 30", got)
	}
	if got := self["vax780"] * 1e3; math.Abs(got-80) > 1e-6 {
		t.Errorf("vax780 self time %v ms, want 80", got)
	}
}
