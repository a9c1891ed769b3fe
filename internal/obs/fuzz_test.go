package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzTraceRows drives the one span reader and its neighbours over
// arbitrary bytes, seeded from sampleTree's exports (wall-free,
// wall-placed, stripped, torn). Two properties must survive any input:
//
//  1. ParseRows, ValidateSpans, StripWall, AssembleJob (the input as
//     the journal, and as the bundle trace spliced under a valid
//     journal) and WriteChromeTrace never panic;
//  2. anything ValidateSpans accepts parses, and re-exports through
//     WriteRows to bytes that StripWall maps to the input's own
//     canonical form — so a validated trace is exactly the tree it
//     describes, and every tool that rebuilds it agrees on the bytes.
func FuzzTraceRows(f *testing.F) {
	rec, root := sampleTree()
	var plain bytes.Buffer
	if err := rec.WriteJSONL(&plain); err != nil {
		f.Fatal(err)
	}
	root.SetWall(0, 9e6)
	root.Children()[1].SetWall(1e6, 2e6)
	var walled bytes.Buffer
	if err := rec.WriteJSONL(&walled); err != nil {
		f.Fatal(err)
	}
	stripped, err := StripWall(walled.Bytes())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(walled.Bytes())
	f.Add(stripped)
	f.Add(walled.Bytes()[:walled.Len()/2])
	f.Add([]byte(sampleJournal()))
	f.Add([]byte{})

	journal := sampleJournal()
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = AssembleJob(bytes.NewReader(data), "j-0001", nil)
		if trace, job, err := AssembleJob(strings.NewReader(journal), "j-0001", data); err == nil {
			_ = WriteChromeTrace(io.Discard, trace, job)
		}
		canon, stripErr := StripWall(data)
		trace, tree, parseErr := ParseRows(data)
		if parseErr == nil {
			_ = WriteChromeTrace(io.Discard, trace, tree)
		}
		if ValidateSpans(data) != nil {
			return
		}
		if parseErr != nil {
			t.Fatalf("ValidateSpans accepted rows ParseRows rejects: %v", parseErr)
		}
		if stripErr != nil {
			t.Fatalf("ValidateSpans accepted rows StripWall rejects: %v", stripErr)
		}
		var re bytes.Buffer
		if err := WriteRows(&re, trace, tree); err != nil {
			t.Fatalf("re-export: %v", err)
		}
		got, err := StripWall(re.Bytes())
		if err != nil {
			t.Fatalf("re-export does not strip: %v", err)
		}
		if !bytes.Equal(got, canon) {
			t.Fatalf("re-export changed the canonical form:\n%s\nvs input\n%s", got, canon)
		}
	})
}
