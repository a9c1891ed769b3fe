package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"testing"

	"vax780/internal/runlog"
)

// sampleTree builds a small run-shaped trace exercising every run-side
// span kind.
func sampleTree() (*Recorder, *Span) {
	rec := NewRecorder("k-0123")
	root := rec.Begin("run", "TIMESHARING-A,TIMESHARING-A")
	root.Attr("config", "00000000deadbeef").Attr("workloads", 2).
		Attr("instructions", 1000).Attr("retries", 1).Attr("resumed", 1)
	root.SetCycles(21900)
	rs := root.Child("resume", "resume")
	rs.Attr("restored", 1)
	for i := 0; i < 2; i++ {
		ws := root.Child("workload", "TIMESHARING-A")
		ws.Attr("index", i).Attr("instructions", 1000).Attr("cpi", 10.95)
		ws.SetCycles(10950)
		fs := ws.Child("flow", "IRD")
		fs.Attr("entry", 16).Attr("share", 0.41)
		fs.SetCycles(4000)
		cs := ws.Child("checkpoint", "checkpoint")
		cs.Attr("records", i+1)
	}
	rt := root.Children()[1].Child("retry", "retries")
	rt.Attr("count", 1)
	return rec, root
}

func TestPathIDDeterministic(t *testing.T) {
	a := PathID("trace-1", "run/0:wl")
	if a != PathID("trace-1", "run/0:wl") {
		t.Fatal("PathID not stable")
	}
	if a == PathID("trace-2", "run/0:wl") || a == PathID("trace-1", "run/1:wl") {
		t.Fatal("PathID does not separate trace/path")
	}
	if len(a) != 16 {
		t.Fatalf("PathID %q not 16 hex digits", a)
	}
}

func TestWriteRowsValidatesAndRoundTrips(t *testing.T) {
	rec, _ := sampleTree()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSpans(buf.Bytes()); err != nil {
		t.Fatalf("sample trace fails its own schema: %v", err)
	}
	// Duplicate workload names must still produce distinct IDs.
	trace, root, err := ParseRows(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if trace != "k-0123" {
		t.Fatalf("trace = %q", trace)
	}
	var buf2 bytes.Buffer
	if err := WriteRows(&buf2, trace, root); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("ParseRows/WriteRows does not round-trip:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
	// The export is repeatable byte for byte.
	var buf3 bytes.Buffer
	if err := rec.WriteJSONL(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf3.Bytes()) {
		t.Fatal("re-export changed bytes")
	}
}

func TestValidateSpansRejects(t *testing.T) {
	rec, _ := sampleTree()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")

	mutate := func(name string, fn func(rows []map[string]any)) {
		rows := make([]map[string]any, len(lines))
		for i, l := range lines {
			if err := json.Unmarshal([]byte(l), &rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		fn(rows)
		var out bytes.Buffer
		for _, r := range rows {
			enc, _ := json.Marshal(r)
			out.Write(append(enc, '\n'))
		}
		if err := ValidateSpans(out.Bytes()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	mutate("id not derived from path", func(rows []map[string]any) {
		rows[2]["id"] = "0000000000000000"
	})
	mutate("orphan parent", func(rows []map[string]any) {
		rows[2]["parent"] = PathID("k-0123", "nowhere")
	})
	mutate("unknown kind", func(rows []map[string]any) {
		rows[0]["kind"] = "mystery"
	})
	mutate("extra attr", func(rows []map[string]any) {
		attrsOf(t, rows[1])["bogus"] = 1
	})
	mutate("missing required attr", func(rows []map[string]any) {
		delete(attrsOf(t, rows[1]), "restored")
	})
	mutate("second trace id", func(rows []map[string]any) {
		rows[3]["trace"] = "other"
		rows[3]["id"] = PathID("other", rows[3]["path"].(string))
	})
	mutate("key outside envelope", func(rows []map[string]any) {
		rows[0]["wall"] = 5
	})
	mutate("path not derived from parent and name", func(rows []map[string]any) {
		leaf := rows[len(rows)-1]
		leaf["path"] = leaf["path"].(string) + "x"
		leaf["id"] = PathID("k-0123", leaf["path"].(string))
	})
	mutate("rows out of depth-first order", func(rows []map[string]any) {
		rows[5], rows[6] = rows[6], rows[5] // workload 0's retry after workload 1
	})
	mutate("explicit zero field", func(rows []map[string]any) {
		rows[1]["cycles"] = 0
	})
	if err := ValidateSpans(nil); err == nil {
		t.Error("empty trace accepted")
	}
}

// attrsOf digs the attrs map out of a decoded row.
func attrsOf(t *testing.T, row map[string]any) map[string]any {
	t.Helper()
	m, ok := row["attrs"].(map[string]any)
	if !ok {
		t.Fatal("row has no attrs")
	}
	return m
}

func TestStripWall(t *testing.T) {
	rec, root := sampleTree()
	root.Children()[1].SetWall(1e6, 2e6) // profiler splice on one workload
	var walled bytes.Buffer
	if err := rec.WriteJSONL(&walled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(walled.Bytes(), []byte("start_ns")) {
		t.Fatal("wall placement not exported")
	}
	stripped, err := StripWall(walled.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stripped, []byte("start_ns")) || bytes.Contains(stripped, []byte("dur_ns")) {
		t.Fatal("StripWall left wall keys")
	}
	// A wall-free export strips to the same canonical bytes.
	rec2, _ := sampleTree()
	var plain bytes.Buffer
	if err := rec2.WriteJSONL(&plain); err != nil {
		t.Fatal(err)
	}
	stripped2, err := StripWall(plain.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripped, stripped2) {
		t.Fatalf("wall placement leaked into stripped bytes:\n%s\nvs\n%s", stripped, stripped2)
	}
	if err := ValidateSpans(stripped); err != nil {
		t.Fatalf("stripped trace fails schema: %v", err)
	}
	// A torn trace — the final row cut mid-record — is an error, not
	// a silently shorter canonical form.
	torn := walled.Bytes()[:walled.Len()-10]
	if out, err := StripWall(torn); err == nil {
		t.Fatalf("StripWall accepted a torn trace:\n%s", out)
	}
}

func TestChromeExport(t *testing.T) {
	rec, root := sampleTree()
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, rec.TraceID(), root); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, rec.TraceID(), root); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Chrome export not deterministic")
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if want := len(Flatten(rec.TraceID(), root)); len(out.TraceEvents) != want {
		t.Fatalf("chrome events %d, spans %d", len(out.TraceEvents), want)
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.Dur <= 0 {
			t.Fatalf("bad chrome event %+v", ev)
		}
	}
}

// chromeEvents decodes a Chrome export's events.
func chromeEvents(t *testing.T, data []byte) []chromeEvent {
	t.Helper()
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out.TraceEvents
}

// sampleChromeGolden is sampleTree's Chrome export: with no wall data
// one cycle renders as one microsecond, children back to back on one
// track. The mixed-timebase layout must not move a byte of it.
const sampleChromeGolden = `{"traceEvents":[` +
	`{"name":"TIMESHARING-A,TIMESHARING-A","cat":"run","ph":"X","ts":0,"dur":21901,"pid":1,"tid":1,"args":{"config":"00000000deadbeef","instructions":1000,"resumed":1,"retries":1,"trace":"k-0123","workloads":2}},` +
	`{"name":"resume","cat":"resume","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"restored":1,"trace":"k-0123"}},` +
	`{"name":"TIMESHARING-A","cat":"workload","ph":"X","ts":1,"dur":10950,"pid":1,"tid":1,"args":{"cpi":10.95,"index":0,"instructions":1000,"trace":"k-0123"}},` +
	`{"name":"IRD","cat":"flow","ph":"X","ts":1,"dur":4000,"pid":1,"tid":1,"args":{"entry":16,"share":0.41,"trace":"k-0123"}},` +
	`{"name":"checkpoint","cat":"checkpoint","ph":"X","ts":4001,"dur":1,"pid":1,"tid":1,"args":{"records":1,"trace":"k-0123"}},` +
	`{"name":"retries","cat":"retry","ph":"X","ts":4002,"dur":1,"pid":1,"tid":1,"args":{"count":1,"trace":"k-0123"}},` +
	`{"name":"TIMESHARING-A","cat":"workload","ph":"X","ts":10951,"dur":10950,"pid":1,"tid":1,"args":{"cpi":10.95,"index":1,"instructions":1000,"trace":"k-0123"}},` +
	`{"name":"IRD","cat":"flow","ph":"X","ts":10951,"dur":4000,"pid":1,"tid":1,"args":{"entry":16,"share":0.41,"trace":"k-0123"}},` +
	`{"name":"checkpoint","cat":"checkpoint","ph":"X","ts":14951,"dur":1,"pid":1,"tid":1,"args":{"records":2,"trace":"k-0123"}}` +
	"]}\n"

// TestChromeLayoutMixedTimebases: a profiled run's shape — a
// wall-placed run and workloads over cycle-only flows — lays out with
// every child inside its parent's window, flows sharing out their
// workload's measured time in proportion to their cycles, and
// overlapping workloads on separate tracks; a wall-free trace keeps
// its one-cycle-one-microsecond layout byte for byte.
func TestChromeLayoutMixedTimebases(t *testing.T) {
	rec, root := sampleTree()
	var plain bytes.Buffer
	if err := WriteChromeTrace(&plain, rec.TraceID(), root); err != nil {
		t.Fatal(err)
	}
	if plain.String() != sampleChromeGolden {
		t.Errorf("wall-free layout changed:\n%s\nwant\n%s", plain.String(), sampleChromeGolden)
	}

	// Three workloads of a -j 2 run: a and b overlap, c starts after a
	// ends. Cycle counts dwarf the wall windows in microseconds, so a
	// cycle-as-microsecond layout would overflow every workload. Flows
	// are a workload's top flows, so they sum below its cycles.
	rec = NewRecorder("mixed")
	run := rec.Begin("run", "mixed").SetCycles(3_000_000).SetWall(0, 12e6)
	type wl struct {
		name           string
		startNs, durNs float64
		cycles         uint64
		flows          []uint64
	}
	for _, w := range []wl{
		{"a", 1e6, 4e6, 1_000_000, []uint64{400_000, 300_000, 100_000}},
		{"b", 2e6, 6e6, 1_200_000, []uint64{700_000, 450_000}},
		{"c", 6e6, 5e6, 800_000, []uint64{600_000}},
	} {
		ws := run.Child("workload", w.name).SetCycles(w.cycles).SetWall(w.startNs, w.durNs)
		for i, c := range w.flows {
			ws.Child("flow", fmt.Sprintf("%s.f%d", w.name, i)).SetCycles(c)
		}
		ws.Child("checkpoint", "checkpoint")
	}
	var mixed bytes.Buffer
	if err := WriteChromeTrace(&mixed, rec.TraceID(), run); err != nil {
		t.Fatal(err)
	}
	evs := chromeEvents(t, mixed.Bytes())
	rows := Flatten(rec.TraceID(), run)
	if len(evs) != len(rows) {
		t.Fatalf("%d events for %d spans", len(evs), len(rows))
	}
	at := make(map[string]int, len(rows))
	for i, row := range rows {
		at[row.ID] = i
	}
	const eps = 1e-6
	byName := map[string]chromeEvent{}
	for i, row := range rows {
		c := evs[i]
		byName[c.Name] = c
		if row.Parent == "" {
			if c.Ts != 0 || c.Dur != 12e3 {
				t.Errorf("run event [%g +%g], want its wall window [0 +12000]", c.Ts, c.Dur)
			}
			continue
		}
		p := evs[at[row.Parent]]
		if c.Ts < p.Ts-eps || c.Ts+c.Dur > p.Ts+p.Dur+eps {
			t.Errorf("%s %q at [%g, %g] escapes %q [%g, %g]",
				c.Cat, c.Name, c.Ts, c.Ts+c.Dur, p.Name, p.Ts, p.Ts+p.Dur)
		}
		if row.Kind == "flow" {
			// µs per cycle must be the parent workload's window over
			// its cycle count.
			ws := rows[at[row.Parent]]
			want := ws.DurNs / 1e3 / float64(ws.Cycles)
			if got := c.Dur / float64(row.Cycles); math.Abs(got-want) > 1e-9*want {
				t.Errorf("flow %q renders %g µs/cycle, want %g", c.Name, got, want)
			}
		}
	}
	a, b, c := byName["a"], byName["b"], byName["c"]
	if a.Tid == b.Tid || b.Tid == c.Tid {
		t.Errorf("overlapping workloads share a track: a=%d b=%d c=%d", a.Tid, b.Tid, c.Tid)
	}
	if c.Tid != a.Tid {
		t.Errorf("c starts after a ends but took tid %d, not a's %d", c.Tid, a.Tid)
	}
	// Descendants ride their workload's track.
	for name, want := range map[string]int{"a.f0": a.Tid, "b.f1": b.Tid, "c.f0": c.Tid} {
		if got := byName[name].Tid; got != want {
			t.Errorf("flow %s on tid %d, want its workload's %d", name, got, want)
		}
	}
}

func TestNilHooksAreSafe(t *testing.T) {
	var r *Recorder
	s := r.Begin("run", "x")
	s.Child("workload", "y").Attr("k", 1).SetCycles(5).SetWall(1, 2)
	if r.TraceID() != "" || r.Root() != nil || s.Children() != nil || s.AttrMap() != nil {
		t.Fatal("nil recorder leaked state")
	}
	var m *Metrics
	m.Count(Rec{Msg: runlog.EvJobQueued})
	m.Observe("vaxd_job_duration_seconds", "t", 1)
	m.Gauge("g", "h", func() float64 { return 0 })
	if m.Counters() != nil {
		t.Fatal("nil metrics returned counters")
	}
	if err := m.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// journalLine fabricates one journal record the way the manager's
// slog handler would render it.
func journalLine(tm string, ev runlog.Event) string {
	rec := map[string]any{"time": tm, "level": "INFO", "msg": ev.Type}
	for _, a := range ev.Attrs {
		rec[a.Key] = attrVal(a.Value)
	}
	b, _ := json.Marshal(rec)
	return string(b)
}

// attrVal renders a slog value json-marshalable, groups as objects —
// matching the slog JSON handler's wire form.
func attrVal(v slog.Value) any {
	v = v.Resolve()
	if v.Kind() == slog.KindGroup {
		m := map[string]any{}
		for _, a := range v.Group() {
			m[a.Key] = attrVal(a.Value)
		}
		return m
	}
	return v.Any()
}

func sampleJournal() string {
	t := func(ms int) string { return fmt.Sprintf("2026-08-08T10:00:%02d.%03d000000Z", ms/1000, ms%1000) }
	lines := []string{
		journalLine(t(0), runlog.JobQueuedEvent("j-0001", "k-0123", "alice", 30000, map[string]any{"instructions": 1000})),
		journalLine(t(1), runlog.JobHTTPEvent("j-0001", "POST /jobs", "alice", 202, 1e6)),
		journalLine(t(2), runlog.JobStartEvent("j-0001", "k-0123", 0)),
		journalLine(t(400), runlog.JobDoneEvent("j-0001", "k-0123", "evicted", "drain", false, 0, 0, 0)),
		journalLine(t(401), runlog.DrainEvent("SIGTERM", 1)),
		journalLine(t(500), runlog.JobStartEvent("j-0001", "k-0123", 1)),
		journalLine(t(900), runlog.JobDoneEvent("j-0001", "k-0123", "done", "", false, 1000, 21900, 10.95)),
		journalLine(t(950), runlog.JobShedEvent("bob", "queue-full")),
		journalLine(t(951), runlog.JobHTTPEvent("", "POST /jobs", "bob", 429, 0.5e6)),
		journalLine(t(960), runlog.CommitRaceEvent("k-0123")),
		journalLine(t(970), runlog.JournalTornEvent(1)),
	}
	return strings.Join(lines, "\n") + "\n"
}

func TestRecomposeAndValidate(t *testing.T) {
	journal := sampleJournal()
	m := NewMetrics()
	for _, line := range strings.Split(strings.TrimSpace(journal), "\n") {
		if r, ok := ParseRec([]byte(line)); ok {
			m.Count(r)
		}
	}
	if err := Validate(m.Counters(), strings.NewReader(journal)); err != nil {
		t.Fatalf("live counters fed from the same journal do not validate: %v", err)
	}
	got := m.Counters()
	for key, want := range map[string]float64{
		`vaxd_jobs_submitted_total{tenant="alice"}`: 1,
		`vaxd_job_starts_total`:                     2,
		`vaxd_jobs_done_total{state="evicted"}`:     1,
		`vaxd_jobs_done_total{state="done"}`:        1,
		`vaxd_jobs_shed_total{reason="queue-full"}`: 1,
		`vaxd_requests_total{tenant="alice"}`:       1,
		`vaxd_requests_total{tenant="bob"}`:         1,
		`vaxd_request_errors_total{tenant="bob"}`:   1,
		`vaxd_drains_total`:                         1,
		`vaxd_castore_commit_races_total`:           1,
		`vaxd_castore_torn_tails_total`:             1,
	} {
		if got[key] != want {
			t.Errorf("%s = %g, want %g", key, got[key], want)
		}
	}
	// A counter moved without journal support must be caught...
	m.Count(Rec{Msg: runlog.EvJobShed, Tenant: "bob", Reason: "quota"})
	if err := Validate(m.Counters(), strings.NewReader(journal)); err == nil {
		t.Fatal("Validate missed an unsupported live counter")
	}
	// ...and so must a journaled event that was never counted.
	m2 := NewMetrics()
	if err := Validate(m2.Counters(), strings.NewReader(journal)); err == nil {
		t.Fatal("Validate missed missing live counters")
	}
}

func TestPrometheusRendering(t *testing.T) {
	m := NewMetrics()
	m.Count(Rec{Msg: runlog.EvJobQueued, Tenant: "alice"})
	m.Count(Rec{Msg: runlog.EvJobQueued, Tenant: "bob"})
	m.Observe("vaxd_request_duration_seconds", "alice", 0.002)
	m.Observe("vaxd_request_duration_seconds", "alice", 120)
	m.Gauge("vaxd_queue_depth", "jobs waiting", func() float64 { return 3 })
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE vaxd_jobs_submitted_total counter",
		`vaxd_jobs_submitted_total{tenant="alice"} 1`,
		`vaxd_jobs_submitted_total{tenant="bob"} 1`,
		"# TYPE vaxd_request_duration_seconds histogram",
		`vaxd_request_duration_seconds_bucket{tenant="alice",le="0.005"} 1`,
		`vaxd_request_duration_seconds_bucket{tenant="alice",le="+Inf"} 2`,
		`vaxd_request_duration_seconds_count{tenant="alice"} 2`,
		"# TYPE vaxd_queue_depth gauge",
		"vaxd_queue_depth 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// Rendering is deterministic.
	var buf2 bytes.Buffer
	if err := m.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("Prometheus rendering not deterministic")
	}
}

func TestAssembleJob(t *testing.T) {
	// The bundle's run trace, as runSingle would stage it.
	rec, _ := sampleTree()
	var bundle bytes.Buffer
	if err := rec.WriteJSONL(&bundle); err != nil {
		t.Fatal(err)
	}
	trace, root, err := AssembleJob(strings.NewReader(sampleJournal()), "j-0001", bundle.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if trace != "job-j-0001" {
		t.Fatalf("trace = %q", trace)
	}
	var out bytes.Buffer
	if err := WriteRows(&out, trace, root); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSpans(out.Bytes()); err != nil {
		t.Fatalf("assembled trace fails schema: %v\n%s", err, out.Bytes())
	}
	kinds := map[string]int{}
	for _, row := range Flatten(trace, root) {
		kinds[row.Kind]++
	}
	// Two lives: two queue waits, two attempts (evicted + done), the
	// admission http span, and the spliced run subtree.
	for kind, want := range map[string]int{
		"job": 1, "http": 1, "queue": 2, "attempt": 2,
		"run": 1, "resume": 1, "workload": 2, "flow": 2, "checkpoint": 2, "retry": 1,
	} {
		if kinds[kind] != want {
			t.Errorf("%s spans = %d, want %d (kinds: %v)", kind, kinds[kind], want, kinds)
		}
	}
	if root.AttrMap()["state"] != "done" || root.AttrMap()["requeues"] != 1 {
		t.Fatalf("job span attrs: %v", root.AttrMap())
	}
	if root.StartNs != 0 || root.DurNs <= 0 {
		t.Fatalf("job span not normalized: start %g dur %g", root.StartNs, root.DurNs)
	}
	// Chrome form of the assembled trace must also encode.
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, trace, root); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Fatal("assembled chrome trace invalid")
	}

	// A job with no events is an error.
	if _, _, err := AssembleJob(strings.NewReader(sampleJournal()), "j-9999", nil); err == nil {
		t.Fatal("AssembleJob accepted an unknown job")
	}
	// A cached hit (queued + done, no start) still assembles.
	cached := journalLine("2026-08-08T11:00:00Z", runlog.JobQueuedEvent("j-0002", "k-0123", "alice", 0, nil)) + "\n" +
		journalLine("2026-08-08T11:00:00.001Z", runlog.JobDoneEvent("j-0002", "k-0123", "done", "", true, 1000, 21900, 10.95)) + "\n"
	_, cr, err := AssembleJob(strings.NewReader(cached), "j-0002", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.AttrMap()["cached"] != true || len(cr.Children()) != 0 {
		t.Fatalf("cached job span: attrs %v, %d children", cr.AttrMap(), len(cr.Children()))
	}
}
