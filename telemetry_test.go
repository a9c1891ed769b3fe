package vax780

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestTelemetryIntervalInvariant is the acceptance check of the live
// telemetry layer: over a full composite run, the summed per-interval
// histogram cycles equal the composite histogram's total cycles — the
// board seen as a time series recomposes exactly to the board seen as
// the paper's averages.
func TestTelemetryIntervalInvariant(t *testing.T) {
	tel := NewTelemetry(2000, 0)
	res, err := Run(RunConfig{
		Instructions: 2000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific},
		Telemetry:    tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tel.IntervalCycleTotal(), res.Histogram().TotalCycles(); got != want {
		t.Errorf("interval cycle sum = %d, composite histogram total = %d", got, want)
	}

	c := tel.Counters()
	if c.Cycles != res.Histogram().TotalCycles() {
		t.Errorf("live cycle counter = %d, histogram total = %d",
			c.Cycles, res.Histogram().TotalCycles())
	}
	var instrs uint64
	for _, w := range res.PerWorkload {
		instrs += w.Instructions
	}
	if c.Instrs != instrs {
		t.Errorf("live instruction counter = %d, per-workload sum = %d", c.Instrs, instrs)
	}
	if c.Intervals == 0 {
		t.Error("no intervals recorded")
	}

	rows := tel.IntervalRows()
	if len(rows) != int(c.Intervals) {
		t.Errorf("%d rows for %d rolled intervals", len(rows), c.Intervals)
	}
	var rowInstrs uint64
	for _, r := range rows {
		rowInstrs += r.Instructions
	}
	// Row instruction counts come from the IRD bucket of each interval
	// histogram; their sum is the composite's instruction count.
	if rowInstrs != res.Instructions() {
		t.Errorf("row instruction sum = %d, composite = %d", rowInstrs, res.Instructions())
	}
}

// TestTelemetryAttachmentIsPassive verifies the paper's core discipline:
// the attached monitor must not perturb the measurement. A run with the
// full telemetry stack enabled produces bit-identical results.
func TestTelemetryAttachmentIsPassive(t *testing.T) {
	cfg := RunConfig{Instructions: 1500, Workloads: []WorkloadID{TimesharingB}}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = NewTelemetry(1000, 100000)
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *plain.Histogram() != *instrumented.Histogram() {
		t.Error("telemetry perturbed the histogram")
	}
	if plain.CPI() != instrumented.CPI() {
		t.Errorf("CPI changed: %g plain, %g instrumented", plain.CPI(), instrumented.CPI())
	}
}

// TestHooksObserveEveryCycle: with telemetry, a forced-on flight
// recorder and a profiler attached at once, each observer sees every
// cycle of the composite — the live counter, the interval sums and the
// profile's total all equal the histogram total — and together they
// leave the measurement bit-identical to a bare run.
func TestHooksObserveEveryCycle(t *testing.T) {
	cfg := RunConfig{Instructions: 1800, Workloads: []WorkloadID{TimesharingA, RTECommercial}}
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(1500, 200000)
	prof := &Profiler{}
	hooked := cfg
	hooked.Telemetry = tel
	hooked.FlightDepth = 64
	hooked.Profiler = prof
	res, err := Run(hooked)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, bare, res)

	total := res.Histogram().TotalCycles()
	if c := tel.Counters(); c.Cycles != total {
		t.Errorf("telemetry counted %d cycles, histogram holds %d", c.Cycles, total)
	}
	if got := tel.IntervalCycleTotal(); got != total {
		t.Errorf("interval cycle sum = %d, histogram total = %d", got, total)
	}
	if p := prof.Profile(); p == nil {
		t.Error("profiler published no profile")
	} else if p.TotalCycles != res.Histogram().TotalCycles() {
		t.Errorf("profiler attributed %d cycles, histogram holds %d", p.TotalCycles, total)
	}
}

func TestTelemetryExportsAndHandler(t *testing.T) {
	tel := NewTelemetry(1000, 200000)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	// Serve while the run executes — the live-monitor mode.
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		_, runErr = Run(RunConfig{
			Instructions: 2000,
			Workloads:    []WorkloadID{TimesharingA},
			Telemetry:    tel,
		})
	}()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}

	r, err := httpGet(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r, "vax780_cycles_total") {
		t.Error("metrics endpoint lacks cycle counter")
	}

	var csv, js, trace bytes.Buffer
	if err := tel.WriteIntervalsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "interval,start_cycle") {
		t.Error("CSV header missing")
	}
	if err := tel.WriteIntervalsJSON(&js); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(js.Bytes(), &rows); err != nil {
		t.Fatalf("interval JSON invalid: %v", err)
	}
	if err := tel.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(trace.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if _, ok := tf["traceEvents"].([]any); !ok {
		t.Error("trace lacks traceEvents array")
	}
}

// traceOf runs the three-workload composite at -j with a trace cap and
// returns its Chrome trace's events and otherData.truncated flag.
func traceOf(t *testing.T, j, maxEvents int) ([]json.RawMessage, bool) {
	t.Helper()
	tel := NewTelemetry(0, maxEvents)
	cfg := RunConfig{
		Instructions: 1000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific, RTECommercial},
		Parallelism:  j,
		Telemetry:    tel,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   struct {
			Truncated bool `json:"truncated"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	return tf.TraceEvents, tf.OtherData.Truncated
}

// TestTraceCapIsPrefix: a capped trace is the uncapped trace cut after
// its first events, and is flagged truncated exactly when the cut lost
// something. This is the contract that lets a capped tracer stop
// observing once its cap drops an event. A cap equal to the uncapped
// length retains everything and must not be flagged.
func TestTraceCapIsPrefix(t *testing.T) {
	for _, j := range []int{1, 2, 4} {
		full, fullTrunc := traceOf(t, j, -1)
		if fullTrunc {
			t.Fatalf("-j %d: uncapped trace flagged truncated", j)
		}
		for _, limit := range []int{1, 300, 20000, len(full)} {
			got, trunc := traceOf(t, j, limit)
			if len(got) > len(full) {
				t.Fatalf("-j %d cap %d: %d events, uncapped has %d", j, limit, len(got), len(full))
			}
			for i := range got {
				if !bytes.Equal(got[i], full[i]) {
					t.Fatalf("-j %d cap %d: event %d differs from the uncapped trace:\n%s\n%s",
						j, limit, i, got[i], full[i])
				}
			}
			if want := len(full) > len(got); trunc != want {
				t.Errorf("-j %d cap %d: truncated = %t with %d of %d events kept",
					j, limit, trunc, len(got), len(full))
			}
		}
	}
}

// TestLiveCountersMonotonic: a reader polling the live counters during
// a run sees them only grow, and once Run returns they equal the
// composite histogram's totals. Sequentially the live counters copy
// the running machine's own counters as it runs; in parallel the
// workloads' children are absorbed at merge. Run under -race it also
// proves the copies never race with the reader.
func TestLiveCountersMonotonic(t *testing.T) {
	for _, j := range []int{1, 2} {
		tel := NewTelemetry(1500, 0)
		tel.Counters() // build the layer before the poller reads it
		stop := make(chan struct{})
		polled := make(chan error, 1)
		go func() { polled <- pollCounters(tel, stop) }()
		res, err := Run(RunConfig{
			Instructions: 20_000,
			Workloads:    []WorkloadID{TimesharingA, RTEScientific, RTECommercial},
			Parallelism:  j,
			Telemetry:    tel,
		})
		close(stop)
		if perr := <-polled; perr != nil {
			t.Errorf("-j %d: %v", j, perr)
		}
		if err != nil {
			t.Fatal(err)
		}

		h := res.Histogram()
		var stalled uint64
		for _, n := range h.Stalled {
			stalled += n
		}
		var instrs uint64
		for _, w := range res.PerWorkload {
			instrs += w.Instructions
		}
		c := tel.Counters()
		if c.Cycles != h.TotalCycles() {
			t.Errorf("-j %d: Cycles = %d, histogram total %d", j, c.Cycles, h.TotalCycles())
		}
		if c.StallCycles != stalled {
			t.Errorf("-j %d: StallCycles = %d, histogram stalled total %d", j, c.StallCycles, stalled)
		}
		if c.Instrs != instrs {
			t.Errorf("-j %d: Instrs = %d, workloads retired %d", j, c.Instrs, instrs)
		}
	}
}

// TestLiveCountersExactAfterFailedRun: a sequential run that stops
// with an error still leaves the live counters exact, holding every
// event of the workloads that ran. (In parallel the merge absorbs each
// workload's finished child, which publishes everything.)
func TestLiveCountersExactAfterFailedRun(t *testing.T) {
	solo := NewTelemetry(0, 0)
	if _, err := Run(RunConfig{
		Instructions: 3000,
		Workloads:    []WorkloadID{TimesharingA},
		Telemetry:    solo,
	}); err != nil {
		t.Fatal(err)
	}
	halted := NewTelemetry(0, 0)
	_, err := Run(RunConfig{
		Instructions: 3000,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific},
		Parallelism:  1,
		Telemetry:    halted,
		haltAfter:    1,
	})
	if !errors.Is(err, errRunHalted) {
		t.Fatalf("err = %v, want the halt after one workload", err)
	}
	if got, want := halted.Counters(), solo.Counters(); got != want {
		t.Errorf("counters after the failed run:\n%+v\nwant the one workload's\n%+v", got, want)
	}
}

// TestIntervalRowsSumToLiveCounters: the interval series' four miss
// columns add up to the live counters at -j 1 and -j 2 (the D-stream
// column counts PTE read misses, as the live counter and §4 do).
func TestIntervalRowsSumToLiveCounters(t *testing.T) {
	for _, j := range []int{1, 2} {
		tel := NewTelemetry(5000, 0)
		if _, err := Run(RunConfig{
			Instructions: 4000,
			Workloads:    []WorkloadID{TimesharingA, RTEScientific, RTECommercial},
			Parallelism:  j,
			Telemetry:    tel,
		}); err != nil {
			t.Fatal(err)
		}
		var missD, missI, tbD, tbI uint64
		for _, r := range tel.IntervalRows() {
			missD += r.CacheMissD
			missI += r.CacheMissI
			tbD += r.TBMissD
			tbI += r.TBMissI
		}
		c := tel.Counters()
		got := [4]uint64{missD, missI, tbD, tbI}
		want := [4]uint64{c.CacheMissD, c.CacheMissI, c.TBMissD, c.TBMissI}
		if got != want {
			t.Errorf("-j %d: row sums (cache d, cache i, tb d, tb i) = %v, live counters %v", j, got, want)
		}
	}
}

// pollCounters reads tel's live counters until stop closes and reports
// the first time one of them decreases.
func pollCounters(tel *Telemetry, stop <-chan struct{}) error {
	var prev TelemetryCounters
	for n := 0; ; n++ {
		c := tel.Counters()
		if c.Cycles < prev.Cycles || c.StallCycles < prev.StallCycles ||
			c.Instrs < prev.Instrs || c.CacheMissD < prev.CacheMissD ||
			c.CacheMissI < prev.CacheMissI || c.TBMissD < prev.TBMissD ||
			c.TBMissI < prev.TBMissI || c.IBRefills < prev.IBRefills ||
			c.Intervals < prev.Intervals {
			return fmt.Errorf("poll %d: counters went backwards:\nwas %+v\nnow %+v", n, prev, c)
		}
		prev = c
		select {
		case <-stop:
			return nil
		default:
			runtime.Gosched()
		}
	}
}

func TestDescribeTelemetryProbes(t *testing.T) {
	d := DescribeTelemetryProbes()
	for _, want := range []string{"ebox.tick", "Cycle", "Recorder", "Tracer"} {
		if !strings.Contains(d, want) {
			t.Errorf("probe description lacks %q", want)
		}
	}
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
