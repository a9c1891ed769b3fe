package castore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournal: whatever bytes a crash leaves in journal.jsonl, replay
// yields exactly its complete non-empty lines in order; repair leaves
// a file that is empty or newline-terminated and replays to the same
// records; a second repair drops nothing.
func FuzzJournal(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n",
		`{"msg":"a"}` + "\n",
		`{"msg":"a"}` + "\n" + `{"msg":"b"}` + "\n",
		`{"msg":"a"}` + "\n" + `{"msg":"to`,
		"\n\n" + `{"n":1}` + "\n\n",
		"torn",
		`{"n":0}` + "\n" + `{"n":1}` + "\r\n" + "\x00\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		path := filepath.Join(dir, "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		var want [][]byte
		lines := bytes.Split(data, []byte("\n"))
		for _, line := range lines[:len(lines)-1] { // the last piece is unterminated
			if len(line) > 0 {
				want = append(want, line)
			}
		}
		replay := func(stage string) {
			t.Helper()
			var got [][]byte
			if err := s.ReplayJournal(func(line []byte) error {
				got = append(got, bytes.Clone(line))
				return nil
			}); err != nil {
				t.Fatalf("%s: replay: %v", stage, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: replay yielded %d records, want %d", stage, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: record %d = %q, want %q", stage, i, got[i], want[i])
				}
			}
		}

		replay("before repair")
		if _, err := s.RepairJournal(); err != nil {
			t.Fatal(err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(repaired); n > 0 && repaired[n-1] != '\n' {
			t.Fatalf("repaired journal ends in %q, not a newline", repaired[n-1])
		}
		replay("after repair")
		if n, err := s.RepairJournal(); err != nil || n != 0 {
			t.Fatalf("second repair dropped %d records (err %v), want 0", n, err)
		}
	})
}
