package runlog

import (
	"bytes"
	"testing"
)

// FuzzLedgerLines feeds arbitrary bytes to the ledger reader: Validate,
// ValidateLine and StripWallClock must never panic, every line
// ValidateLine accepts must still validate once stripped, and stripping
// is idempotent. Seeds are one record of every persistable event type
// (sampleEvents) and the whole stream.
func FuzzLedgerLines(f *testing.F) {
	var buf bytes.Buffer
	led := New(&buf)
	for _, ev := range sampleEvents() {
		led.Emit(ev)
	}
	for _, line := range Lines(buf.Bytes()) {
		f.Add(bytes.Clone(line))
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"msg":"prof","cycles":1,"flows":[]}` + "\n" + `{"msg":`))
	// A number float64 cannot hold is valid JSON the schema accepts.
	f.Add([]byte(`{"msg":"checkpoint-written","path":"p","records":1e949}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = Validate(bytes.NewReader(data))
		for _, line := range Lines(data) {
			if ValidateLine(line) != nil {
				continue
			}
			stripped, err := StripWallClock(line)
			if err != nil {
				t.Fatalf("valid line does not strip: %v\n%s", err, line)
			}
			if err := ValidateLine(bytes.TrimSpace(stripped)); err != nil {
				t.Fatalf("stripped line fails the schema: %v\n%s", err, stripped)
			}
		}
		stripped, err := StripWallClock(data)
		if err != nil {
			return
		}
		again, err := StripWallClock(stripped)
		if err != nil {
			t.Fatalf("stripped ledger does not strip again: %v", err)
		}
		if !bytes.Equal(again, stripped) {
			t.Fatalf("StripWallClock is not idempotent:\n%s\n%s", stripped, again)
		}
	})
}
