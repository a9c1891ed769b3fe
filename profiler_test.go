package vax780

// Tests of the host-time profiler: the live attribution is bit-exact
// across Parallelism (exact histograms, workload-order merge) and
// recomposes flow for flow from Results.Profile, whose attribution is
// byte-identical seq↔par, the /prof endpoint serves the
// live profile, a profiled run's trace carries the run→workload→flow
// hierarchy on the wall clock, and FlightDepth validation rejects
// non-power-of-two rings up front.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"vax780/internal/obs"
)

// profiledRun executes cfg with a fresh profiler attached and returns
// the profiler, the results, and the stripped ledger bytes.
func profiledRun(t *testing.T, cfg RunConfig, parallelism int) (*Profiler, *Results, []byte) {
	t.Helper()
	p := &Profiler{}
	cfg.Profiler = p
	cfg.Parallelism = parallelism
	var led bytes.Buffer
	cfg.Ledger = &led
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if verr := ValidateLedger(led.Bytes()); verr != nil {
		t.Fatalf("profiled ledger fails schema validation: %v", verr)
	}
	stripped, err := StripLedgerWallClock(led.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return p, res, stripped
}

// profileFingerprint reduces a live profile to its deterministic core:
// everything except the wall-clock-derived ns fields.
func profileFingerprint(p *Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d unattr=%d\n", p.TotalCycles, p.Unattributed)
	for _, f := range p.Flows {
		fmt.Fprintf(&b, "%s %05o %d %.9f %v\n", f.Name, f.Entry, f.Cycles, f.Share, f.ClassCycles)
	}
	return b.String()
}

// TestProfilerParallelBitExact: the live profile — flows, cycles,
// shares, class vectors — and the stripped ledger (including the prof
// event) are identical at Parallelism 1 and 4. The profiler reads exact
// histograms merged in workload order, so parallel scheduling cannot
// move a single count.
func TestProfilerParallelBitExact(t *testing.T) {
	cfg := RunConfig{
		Instructions: 1500,
		Workloads:    []WorkloadID{TimesharingA, RTEScientific, RTECommercial},
	}
	sp, sres, sled := profiledRun(t, cfg, 1)
	pp, pres, pled := profiledRun(t, cfg, 4)

	sprof, pprof := sp.Profile(), pp.Profile()
	if sprof == nil || pprof == nil {
		t.Fatal("profiler published no profile")
	}
	if sf, pf := profileFingerprint(sprof), profileFingerprint(pprof); sf != pf {
		t.Errorf("live profiles differ across parallelism:\nseq:\n%s\npar:\n%s", sf, pf)
	}
	if !bytes.Equal(sled, pled) {
		t.Error("stripped profiled ledgers differ across parallelism")
	}
	if !strings.Contains(string(sled), `"msg":"prof"`) {
		t.Error("profiled ledger carries no prof event")
	}

	// The attribution of the composite histogram, which is already
	// bit-exact seq↔par, must serialize identically too.
	sj, err := json.Marshal(sres.Profile())
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(pres.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Error("exact profiles differ across parallelism")
	}
}

// TestProfilerRecomposesExact: the live profiler reads the board's
// exact histogram, so its final profile recomposes from ground truth
// at every Parallelism — flow for flow (cycles, class cycles, share)
// equal to Results.Profile, its total equal to the composite
// histogram's, its flow ns summing to its wall time, and the ledger
// prof event's cycles equal to run-done's.
func TestProfilerRecomposesExact(t *testing.T) {
	cfg := RunConfig{
		Instructions: 2000,
		Workloads:    []WorkloadID{TimesharingA, RTEEducational, RTEScientific, RTECommercial},
	}
	for _, j := range []int{1, 2, 4} {
		p, res, led := profiledRun(t, cfg, j)
		got := p.Profile()
		if got == nil {
			t.Fatalf("-j %d: profiler published no profile", j)
		}
		if total := res.Histogram().TotalCycles(); got.TotalCycles != total {
			t.Errorf("-j %d: profile holds %d cycles, histogram %d", j, got.TotalCycles, total)
		}
		want := res.Profile().Flows
		if len(got.Flows) != len(want) {
			t.Fatalf("-j %d: %d flows, exact profile has %d", j, len(got.Flows), len(want))
		}
		for i, f := range got.Flows {
			w := want[i]
			if f.Name != w.Name || f.Entry != w.Entry || f.Cycles != w.Cycles ||
				f.ClassCycles != w.ClassCycles || f.Share != w.Share {
				t.Errorf("-j %d: flow %d = %s %d %v %g, exact %s %d %v %g", j, i,
					f.Name, f.Cycles, f.ClassCycles, f.Share, w.Name, w.Cycles, w.ClassCycles, w.Share)
			}
		}
		var ns float64
		for _, f := range got.Flows {
			ns += f.Ns
		}
		if got.WallNs <= 0 || math.Abs(ns-got.WallNs) > 1e-9*got.WallNs {
			t.Errorf("-j %d: flow ns sum to %g, wall %g", j, ns, got.WallNs)
		}

		cycles := map[string]uint64{}
		for _, line := range bytes.Split(bytes.TrimSpace(led), []byte("\n")) {
			var rec struct {
				Msg    string `json:"msg"`
				Cycles uint64 `json:"cycles"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Msg == "prof" || rec.Msg == "run-done" {
				cycles[rec.Msg] = rec.Cycles
			}
		}
		if cycles["prof"] == 0 || cycles["prof"] != cycles["run-done"] {
			t.Errorf("-j %d: ledger prof cycles %d, run-done cycles %d",
				j, cycles["prof"], cycles["run-done"])
		}
	}
}

// TestProfEndpointServesProfile: /prof is 503 before any profiler run
// and serves the latest profile JSON afterwards.
func TestProfEndpointServesProfile(t *testing.T) {
	tel := NewTelemetry(1500, 0)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/prof")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("/prof before any run: status %d, want 503", resp.StatusCode)
	}

	p := &Profiler{}
	if _, err := Run(RunConfig{
		Instructions: 1500,
		Workloads:    []WorkloadID{TimesharingA},
		Telemetry:    tel,
		Profiler:     p,
	}); err != nil {
		t.Fatal(err)
	}

	resp, err = srv.Client().Get(srv.URL + "/prof")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/prof after run: status %d, want 200", resp.StatusCode)
	}
	var served Profile
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.TotalCycles == 0 || len(served.Flows) == 0 {
		t.Fatalf("served profile: %d cycles, %d flows", served.TotalCycles, len(served.Flows))
	}
}

// TestProfilerSpanExports: a traced, profiled run at Parallelism 2
// exports one span model — the run trace — and the profiler's clock
// places it. The JSONL is schema-valid with wall placements on the run
// and workload spans, and the Chrome layout nests every flow inside
// its workload's measured window, covers every workload with the run
// event, and never puts two concurrent workloads on one track.
func TestProfilerSpanExports(t *testing.T) {
	ids := []WorkloadID{TimesharingA, RTEScientific}
	rec := obs.NewRecorder("prof-spans")
	if _, err := Run(RunConfig{
		Instructions: 1500,
		Workloads:    ids,
		Parallelism:  2,
		Profiler:     &Profiler{},
		Trace:        rec,
	}); err != nil {
		t.Fatal(err)
	}

	var spans bytes.Buffer
	if err := rec.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateSpans(spans.Bytes()); err != nil {
		t.Fatalf("span JSONL fails the schema: %v", err)
	}
	rows := obs.Flatten(rec.TraceID(), rec.Root())
	workloads := 0
	for _, row := range rows {
		switch row.Kind {
		case "run", "workload":
			if row.DurNs <= 0 {
				t.Errorf("%s span %q carries no wall placement", row.Kind, row.Name)
			}
			if row.Kind == "workload" {
				workloads++
			}
		}
	}
	if workloads != len(ids) {
		t.Fatalf("trace has %d workload spans, want %d", workloads, len(ids))
	}

	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, rec.TraceID(), rec.Root()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome trace is not JSON: %v", err)
	}
	evs := parsed.TraceEvents
	if len(evs) != len(rows) {
		t.Fatalf("Chrome trace has %d events for %d spans", len(evs), len(rows))
	}
	// Events come out in row order, so a row's parent ID locates the
	// parent's event.
	at := make(map[string]int, len(rows))
	for i, row := range rows {
		at[row.ID] = i
	}
	const eps = 1e-6 // µs of float slack on window edges
	var wl []int
	for i, row := range rows {
		if row.Parent == "" {
			continue
		}
		p := evs[at[row.Parent]]
		if c := evs[i]; c.Ts < p.Ts-eps || c.Ts+c.Dur > p.Ts+p.Dur+eps {
			t.Errorf("%s %q at [%g, %g] escapes its %s parent [%g, %g]",
				c.Cat, c.Name, c.Ts, c.Ts+c.Dur, p.Cat, p.Ts, p.Ts+p.Dur)
		}
		if row.Kind == "workload" {
			wl = append(wl, i)
		}
	}
	for x := 0; x < len(wl); x++ {
		for y := x + 1; y < len(wl); y++ {
			a, b := evs[wl[x]], evs[wl[y]]
			if a.Ts < b.Ts+b.Dur && b.Ts < a.Ts+a.Dur && a.Tid == b.Tid {
				t.Errorf("concurrent workloads %q and %q share tid %d", a.Name, b.Name, a.Tid)
			}
		}
	}
}

// TestFlightDepthValidation: a positive non-power-of-two FlightDepth
// is rejected before any work; powers of two, zero, and negative
// depths pass.
func TestFlightDepthValidation(t *testing.T) {
	base := RunConfig{Instructions: 200, Workloads: []WorkloadID{TimesharingA}}

	cfg := base
	cfg.FlightDepth = 100
	if _, err := Run(cfg); err == nil {
		t.Fatal("FlightDepth=100 accepted, want rejection")
	} else if !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("FlightDepth=100 rejection says %q, want a power-of-two hint", err)
	}

	for _, depth := range []int{0, -1, 64, 256} {
		cfg := base
		cfg.FlightDepth = depth
		if _, err := Run(cfg); err != nil {
			t.Errorf("FlightDepth=%d rejected: %v", depth, err)
		}
	}
}
