package vax780

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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
// recorder and a stride-1 profiler attached at once, each hook observes
// every cycle of the composite — the live counter, the interval sums
// and the sample count all equal the histogram total — and together
// they leave the measurement bit-identical to a bare run.
func TestHooksObserveEveryCycle(t *testing.T) {
	cfg := RunConfig{Instructions: 1800, Workloads: []WorkloadID{TimesharingA, RTECommercial}}
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(1500, 200000)
	prof := &Profiler{SampleStride: 1}
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
	} else if p.Samples != total {
		t.Errorf("stride-1 profiler sampled %d cycles, want every one of %d", p.Samples, total)
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
