package runlog

// The ledger's golden schema: for every event type, the exact attribute
// keys a JSONL record may carry. TestLedgerSchema pins this against the
// constructors; Validate is reused by vaxdiag -ledger -check and CI so
// a drifting format fails loudly everywhere at once.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// EventSchema lists an event type's required and optional attribute
// keys (beyond the standard slog time/level/msg envelope and the
// ledger's seq counter).
type EventSchema struct {
	Required []string
	Optional []string
}

// stdKeys is the envelope every JSONL record carries: slog's handler
// fields plus the ledger sequence number.
var stdKeys = []string{"time", "level", "msg", "seq"}

// Schema returns the golden ledger schema, keyed by event type. The
// bus-only progress event is deliberately absent: its presence in a
// JSONL file is a validation error.
func Schema() map[string]EventSchema {
	return map[string]EventSchema{
		EvRunStart: {
			Required: []string{"config", "workloads", "count", "instructions", "faults"},
			Optional: []string{"fault_seed"},
		},
		EvResume: {
			Required: []string{"path", "restored"},
		},
		EvWlStart: {
			Required: []string{"workload", "index", "instructions"},
		},
		EvWlDone: {
			Required: []string{"workload", "index", "instructions", "cycles",
				"cpi", "retries", "saturated"},
		},
		EvCheckpoint: {
			Required: []string{"path", "records"},
		},
		EvRetry: {
			Required: []string{"workload", "index", "attempt", "cause", "upc",
				"cycle", "backoff_ms"},
		},
		EvFaults: {
			Required: []string{"workload", "index", "total", "classes"},
		},
		EvFault: {
			Required: []string{"workload", "attempts", "upc", "cycle", "site",
				"cause", "transient", "flight"},
		},
		EvProf: {
			Required: []string{"cycles", "flows"},
			Optional: []string{"host"},
		},
		EvRunDone: {
			Required: []string{"workloads", "instructions", "cycles", "cpi",
				"retries", "resumed", "faults", "table8"},
			// The host self-profile is wall-clock data that
			// StripWallClock removes, so a stripped ledger must still
			// validate without it.
			Optional: []string{"prof", "host"},
		},
		EvSweepStart: {
			Required: []string{"points"},
		},
		EvPointDone: {
			Required: []string{"label", "index", "instructions", "cycles",
				"cpi", "error"},
		},
		EvSweepDone: {
			Required: []string{"points", "errors"},
		},
		EvJobQueued: {
			Required: []string{"id", "key", "tenant", "deadline_ms", "spec"},
		},
		EvJobStart: {
			Required: []string{"id", "key", "requeues"},
		},
		EvJobDone: {
			Required: []string{"id", "key", "state", "cause", "cached",
				"instructions", "cycles", "cpi"},
		},
		EvDrain: {
			Required: []string{"reason", "requeued"},
		},
		EvJobHTTP: {
			Required: []string{"id", "route", "tenant", "status"},
			// The request duration is wall-clock data; StripWallClock
			// removes the host group, so it cannot be required.
			Optional: []string{"host"},
		},
		EvJobShed: {
			Required: []string{"tenant", "reason"},
		},
		EvCommitRace: {
			Required: []string{"key"},
		},
		EvJournalTorn: {
			Required: []string{"records"},
		},
	}
}

// ValidateLine checks one JSONL record against the golden schema:
// envelope present, known event type, all required attributes present,
// no attributes outside the schema.
func ValidateLine(line []byte) error {
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("not a JSON object: %w", err)
	}
	var typ string
	if raw, ok := rec["msg"]; !ok {
		return fmt.Errorf("missing msg field")
	} else if err := json.Unmarshal(raw, &typ); err != nil {
		return fmt.Errorf("msg is not a string: %w", err)
	}
	es, ok := Schema()[typ]
	if !ok {
		return fmt.Errorf("unknown event type %q", typ)
	}
	allowed := make(map[string]bool, len(stdKeys)+len(es.Required)+len(es.Optional))
	for _, k := range stdKeys {
		allowed[k] = true
	}
	for _, k := range es.Required {
		allowed[k] = true
		if _, ok := rec[k]; !ok {
			return fmt.Errorf("%s: missing required attribute %q", typ, k)
		}
	}
	for _, k := range es.Optional {
		allowed[k] = true
	}
	var extra []string
	for k := range rec {
		if !allowed[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%s: attributes outside schema: %v", typ, extra)
	}
	return nil
}

// Validate checks a whole JSONL stream, returning the first offending
// line number (1-based) in the error.
func Validate(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := ValidateLine(line); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading ledger: %w", err)
	}
	if n == 0 {
		return fmt.Errorf("empty ledger")
	}
	return nil
}

// wallKeys are the attributes StripWallClock removes: the slog
// timestamp on every record, and the run-done host self-profile (both
// measure the host, not the simulation).
var wallKeys = []string{"time", "host"}

// StripWallClock canonicalizes a JSONL ledger for determinism
// comparison: wall-clock attributes removed, remaining keys re-encoded
// in sorted order, one record per line. Two runs of the same
// configuration must strip to identical bytes regardless of
// parallelism.
func StripWallClock(data []byte) ([]byte, error) {
	return StripKeys(data, wallKeys)
}

// StripKeys is the one JSONL canonicalizer behind StripWallClock and
// obs.StripWall: every non-empty line (see Lines) is parsed as a JSON
// object, the given top-level keys are deleted, and the rest is
// re-encoded with sorted keys, one record per line. Numbers keep their
// literal text, so a count beyond float64's range or precision strips
// unchanged. A line that is not a JSON object — a torn final record
// included — is an error, never a silently shorter stream.
func StripKeys(data []byte, keys []string) ([]byte, error) {
	var out bytes.Buffer
	for n, line := range Lines(data) {
		rec, err := decodeObject(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n+1, err)
		}
		for _, k := range keys {
			delete(rec, k)
		}
		// encoding/json sorts map keys, giving the canonical order.
		enc, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n+1, err)
		}
		out.Write(enc)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

// decodeObject parses one JSON object, numbers as json.Number, and
// rejects anything after it as json.Unmarshal would.
func decodeObject(line []byte) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var rec map[string]any
	if err := dec.Decode(&rec); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("data after the JSON object")
	}
	return rec, nil
}

// Lines splits JSONL data into its non-empty lines, whitespace
// trimmed. An unterminated final line is kept: readers that must
// tolerate a torn tail (journal replay) drop it themselves, and
// everything else then fails on it loudly.
func Lines(data []byte) [][]byte {
	var lines [][]byte
	for len(data) > 0 {
		line := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			data = nil
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			lines = append(lines, line)
		}
	}
	return lines
}
