package vax780

// Tests of the host-time profiler: the sampled attribution is
// bit-exact across Parallelism (cycle-driven sampling, workload-order
// merge), the exact engine's attribution is byte-identical seq↔par,
// the two engines agree on the hot flows, the /prof endpoint serves
// the live profile, a profiled run's trace carries the run→workload→
// flow hierarchy on the wall clock, and FlightDepth validation rejects non-power-of-two
// rings up front.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"vax780/internal/obs"
	"vax780/internal/prof"
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

// sampledFingerprint reduces a sampling profile to its deterministic
// core: everything except the wall-clock-derived ns fields.
func sampledFingerprint(p *Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s stride=%d samples=%d cycles=%d unattr=%d\n",
		p.Engine, p.Stride, p.Samples, p.TotalCycles, p.Unattributed)
	for _, f := range p.Flows {
		fmt.Fprintf(&b, "%s %05o %d %.9f %v\n", f.Name, f.Entry, f.Cycles, f.Share, f.ClassCycles)
	}
	return b.String()
}

// TestProfilerParallelBitExact: the sampled profile — flows, cycles,
// shares, class vectors — and the stripped ledger (including the prof
// event) are identical at Parallelism 1 and 4. The sampler triggers on
// cycle count, not on time, and snapshots merge in workload order, so
// parallel scheduling cannot move a single sample.
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
	if sf, pf := sampledFingerprint(sprof), sampledFingerprint(pprof); sf != pf {
		t.Errorf("sampled profiles differ across parallelism:\nseq:\n%s\npar:\n%s", sf, pf)
	}
	if !bytes.Equal(sled, pled) {
		t.Error("stripped profiled ledgers differ across parallelism")
	}
	if !strings.Contains(string(sled), `"msg":"prof"`) {
		t.Error("profiled ledger carries no prof event")
	}

	// The exact engine prices the composite histogram, which is already
	// bit-exact seq↔par; its serialized attribution must match too.
	cal := prof.Uniform(10)
	sj, err := json.Marshal(sres.Profile(cal))
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(pres.Profile(cal))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Error("exact profiles differ across parallelism")
	}
}

// TestExactSampledTopFlowsAgree: the two engines rank the same five
// flows hottest. Sampling is deterministic (stride-driven), so this is
// a fixed property of the workload, not a statistical one.
func TestExactSampledTopFlowsAgree(t *testing.T) {
	p := &Profiler{}
	res, err := Run(RunConfig{
		Instructions: 20_000,
		Workloads:    []WorkloadID{TimesharingA},
		Profiler:     p,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact := res.Profile(nil)
	sampled := p.Profile()
	if sampled == nil {
		t.Fatal("no sampled profile")
	}
	names := func(pr *Profile) map[string]bool {
		m := map[string]bool{}
		for _, f := range pr.Top(5) {
			m[f.Name] = true
		}
		return m
	}
	en, sn := names(exact), names(sampled)
	if len(en) != 5 || len(sn) != 5 {
		t.Fatalf("top-5 sizes: exact %d, sampled %d", len(en), len(sn))
	}
	for n := range en {
		if !sn[n] {
			t.Errorf("exact top-5 flow %q missing from sampled top-5 %v", n, sn)
		}
	}

	// The sampled cycle estimate of the hottest flow is within 10% of
	// the exact count (stride 64 over ~10^5 cycles).
	eTop, sTop := exact.Top(1)[0], sampled.Top(1)[0]
	if eTop.Name != sTop.Name {
		t.Fatalf("hottest flow: exact %q, sampled %q", eTop.Name, sTop.Name)
	}
	ratio := float64(sTop.Cycles) / float64(eTop.Cycles)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("hottest flow %q: sampled %d vs exact %d cycles (ratio %.3f)",
			eTop.Name, sTop.Cycles, eTop.Cycles, ratio)
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
	if served.Engine != "sampling" || len(served.Flows) == 0 {
		t.Fatalf("served profile: engine %q, %d flows", served.Engine, len(served.Flows))
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
