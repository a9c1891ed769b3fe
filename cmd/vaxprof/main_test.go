package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vax780"
	"vax780/internal/obs"
)

// TestWriteExports: the -spans and -chrome files of a profiled run are
// the run trace — a schema-valid JSONL export with wall placements and
// a Chrome trace that parses.
func TestWriteExports(t *testing.T) {
	rec := obs.NewRecorder("vaxprof")
	_, err := vax780.Run(vax780.RunConfig{
		Instructions: 1000,
		Workloads:    []vax780.WorkloadID{vax780.TimesharingA, vax780.RTECommercial},
		Profiler:     &vax780.Profiler{},
		Trace:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	spans := filepath.Join(dir, "spans.jsonl")
	if err := writeExports(rec, nil, "", chrome, spans); err != nil {
		t.Fatal(err)
	}

	rows, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateSpans(rows); err != nil {
		t.Fatalf("spans file fails the span schema: %v", err)
	}
	_, root, err := obs.ParseRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind != "run" || root.DurNs <= 0 {
		t.Errorf("spans root is a %s span with wall duration %g, want a wall-placed run", root.Kind, root.DurNs)
	}

	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("Chrome file is not JSON: %v", err)
	}
	if n := len(obs.Flatten(rec.TraceID(), rec.Root())); len(parsed.TraceEvents) != n {
		t.Errorf("Chrome file has %d events for %d spans", len(parsed.TraceEvents), n)
	}
}
