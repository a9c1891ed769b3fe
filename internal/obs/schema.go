package obs

// The golden span schema: for every span kind, the exact attribute
// keys a trace row may carry — the span-side twin of runlog.Schema.
// ValidateSpans additionally proves the structural contract the
// /trace endpoint promises: one trace ID, one root, every parent
// emitted before its children (so the export is a single connected
// tree in depth-first order), and every ID recomputable from the
// trace and path alone.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"

	"vax780/internal/runlog"
)

// KindSchema lists a span kind's required and optional attribute keys.
type KindSchema struct {
	Required []string
	Optional []string
}

// SpanSchema returns the golden span schema, keyed by span kind.
func SpanSchema() map[string]KindSchema {
	return map[string]KindSchema{
		// Service spans, assembled from the vaxd journal.
		"job": {
			Required: []string{"id", "key", "tenant", "state"},
			Optional: []string{"cause", "cached", "requeues"},
		},
		"http": {
			Required: []string{"route", "status"},
			Optional: []string{"tenant"},
		},
		"queue": {
			Required: []string{"life"},
		},
		"attempt": {
			Required: []string{"life"},
			Optional: []string{"state", "cause"},
		},
		// Run spans, recorded by RunContext and its merge path.
		"run": {
			Required: []string{"config", "workloads", "instructions"},
			Optional: []string{"retries", "resumed"},
		},
		"resume": {
			Required: []string{"restored"},
		},
		"workload": {
			Required: []string{"index", "instructions", "cpi"},
			Optional: []string{"saturated"},
		},
		"flow": {
			Required: []string{"entry", "share"},
		},
		"checkpoint": {
			Required: []string{"records"},
		},
		"retry": {
			Required: []string{"count"},
		},
	}
}

// rowKeys is the envelope every trace row may carry at the top level.
var rowKeys = map[string]bool{
	"trace": true, "id": true, "parent": true, "kind": true,
	"name": true, "path": true, "cycles": true,
	"start_ns": true, "dur_ns": true, "attrs": true,
}

// ValidateSpans checks a JSONL trace export against the golden schema
// and the structural contract. It accepts the exact bytes WriteRows
// produces (and their StripWall canonical form), and nothing that
// ParseRows → WriteRows would change beyond key order and wall keys:
// rows in depth-first order, paths and IDs derived from the tree, no
// field spelled in a form the wire encoding never produces.
func ValidateSpans(data []byte) error {
	schema := SpanSchema()
	paths := make(map[string]string) // id → path, every row so far
	kids := make(map[string]int)     // id → children seen so far
	var stack []string               // open ancestors of the next row, root first
	var trace string
	n := 0
	for _, line := range runlog.Lines(data) {
		n++
		var raw map[string]any
		if err := json.Unmarshal(line, &raw); err != nil {
			return fmt.Errorf("row %d: not a JSON object: %w", n, err)
		}
		var extra []string
		for k := range raw {
			if !rowKeys[k] {
				extra = append(extra, k)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return fmt.Errorf("row %d: keys outside schema: %v", n, extra)
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("row %d: %w", n, err)
		}
		if row.Trace == "" || row.ID == "" || row.Kind == "" || row.Path == "" {
			return fmt.Errorf("row %d: missing envelope field (trace/id/kind/path)", n)
		}
		if n == 1 {
			trace = row.Trace
		} else if row.Trace != trace {
			return fmt.Errorf("row %d: second trace ID %q (stream is %q)", n, row.Trace, trace)
		}
		if want := PathID(row.Trace, row.Path); row.ID != want {
			return fmt.Errorf("row %d: id %s does not derive from path %q (want %s)",
				n, row.ID, row.Path, want)
		}
		if _, dup := paths[row.ID]; dup {
			return fmt.Errorf("row %d: duplicate id %s", n, row.ID)
		}
		want := segment(row.Name)
		if row.Parent == "" {
			if n != 1 {
				return fmt.Errorf("row %d: second root (no parent)", n)
			}
		} else {
			pp, ok := paths[row.Parent]
			if !ok {
				return fmt.Errorf("row %d: parent %s not emitted before child", n, row.Parent)
			}
			for stack[len(stack)-1] != row.Parent {
				stack = stack[:len(stack)-1]
				if len(stack) == 0 {
					return fmt.Errorf("row %d: parent %s already closed (rows out of depth-first order)", n, row.Parent)
				}
			}
			want = pp + "/" + strconv.Itoa(kids[row.Parent]) + ":" + want
			kids[row.Parent]++
		}
		if row.Path != want {
			return fmt.Errorf("row %d: path %q does not derive from parent and name (want %q)", n, row.Path, want)
		}
		paths[row.ID] = row.Path
		stack = append(stack, row.ID)

		ks, ok := schema[row.Kind]
		if !ok {
			return fmt.Errorf("row %d: unknown span kind %q", n, row.Kind)
		}
		allowed := make(map[string]bool, len(ks.Required)+len(ks.Optional))
		for _, k := range ks.Required {
			allowed[k] = true
			if _, ok := row.Attrs[k]; !ok {
				return fmt.Errorf("row %d: %s span missing required attribute %q", n, row.Kind, k)
			}
		}
		for _, k := range ks.Optional {
			allowed[k] = true
		}
		extra = extra[:0]
		for k := range row.Attrs {
			if !allowed[k] {
				extra = append(extra, k)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return fmt.Errorf("row %d: %s span attributes outside schema: %v", n, row.Kind, extra)
		}
		if !wireForm(raw, row) {
			return fmt.Errorf("row %d: not in wire form (explicit zero or empty field, or a missing name)", n)
		}
	}
	if n == 0 {
		return fmt.Errorf("empty trace")
	}
	return nil
}

// wireForm reports whether a row decodes and re-encodes to the same
// object, wall keys aside: Row's omitempty fields and required name
// mean an explicit zero cycle count, an empty attrs object or a
// missing name would not survive a ParseRows → WriteRows round trip.
// It consumes raw's wall keys.
func wireForm(raw map[string]any, row Row) bool {
	enc, err := json.Marshal(row)
	if err != nil {
		return false
	}
	var back map[string]any
	if err := json.Unmarshal(enc, &back); err != nil {
		return false
	}
	for _, m := range []map[string]any{raw, back} {
		delete(m, "start_ns")
		delete(m, "dur_ns")
	}
	return reflect.DeepEqual(raw, back)
}
