package upc

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestHistogramRoundTrip(t *testing.T) {
	m := New()
	m.Start()
	for i := 0; i < 1000; i++ {
		m.Tick(uint16(i*37%Buckets), i%3 == 0)
	}
	h := m.Snapshot()

	var buf bytes.Buffer
	n, err := h.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadHistogram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Error("round trip mismatch")
	}
}

func TestReadHistogramDetectsCorruption(t *testing.T) {
	h := &Histogram{}
	h.Normal[5] = 42
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a count byte: checksum must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[100] ^= 0xFF
	if _, err := ReadHistogram(bytes.NewReader(corrupt)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted CRC: err = %v, want ErrCorrupt", err)
	}

	// Bad magic.
	corrupt = append([]byte(nil), data...)
	corrupt[0] = 'X'
	if _, err := ReadHistogram(bytes.NewReader(corrupt)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}

	// Wrong bucket count.
	corrupt = append([]byte(nil), data...)
	corrupt[6] ^= 0xFF // low byte of the bucket-count field
	if _, err := ReadHistogram(bytes.NewReader(corrupt)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong bucket count: err = %v, want ErrCorrupt", err)
	}

	// Truncated at several depths: inside the header, inside the count
	// sets, and with only the checksum missing.
	for _, cut := range []int{0, 2, 10, len(data) / 2, len(data) - 4, len(data) - 1} {
		if _, err := ReadHistogram(bytes.NewReader(data[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// failingReader yields a genuine I/O error after n bytes.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

func TestReadHistogramIOErrorIsNotCorruption(t *testing.T) {
	h := &Histogram{}
	h.Normal[1] = 3
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ioErr := errors.New("disk on fire")
	for _, cut := range []int{0, 10, buf.Len() / 2, buf.Len() - 2} {
		r := &failingReader{data: buf.Bytes()[:cut], err: ioErr}
		_, err := ReadHistogram(r)
		if !errors.Is(err, ioErr) {
			t.Errorf("cut at %d: err = %v, want the reader's own error", cut, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d: I/O failure misclassified as corruption", cut)
		}
	}
}

func TestReadHistogramVersionCheck(t *testing.T) {
	h := &Histogram{}
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version field
	_, err := ReadHistogram(bytes.NewReader(data))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("future version: err = %v, want ErrUnsupportedVersion", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Error("a well-formed future-version dump is not corrupt")
	}
}

func TestReadHistogramShortChecksumIsCorrupt(t *testing.T) {
	// io.ReadFull returns plain io.EOF when zero checksum bytes remain;
	// that must still classify as truncation, not pass through as EOF.
	h := &Histogram{}
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-4]
	_, err := ReadHistogram(bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing checksum: err = %v, want ErrCorrupt", err)
	}
	if err != nil && err.Error() == io.EOF.Error() {
		t.Error("bare EOF leaked to the caller")
	}
}

func TestRoundTripPreservesComposite(t *testing.T) {
	// Summing dumps from separate runs must equal summing live
	// histograms — the paper's composite workflow over saved dumps.
	a, b := &Histogram{}, &Histogram{}
	a.Normal[10] = 5
	a.Stalled[10] = 2
	b.Normal[10] = 7

	var bufA, bufB bytes.Buffer
	if _, err := a.WriteTo(&bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bufB); err != nil {
		t.Fatal(err)
	}
	ra, err := ReadHistogram(&bufA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ReadHistogram(&bufB)
	if err != nil {
		t.Fatal(err)
	}
	ra.Add(rb)
	if n, s := ra.At(10); n != 12 || s != 2 {
		t.Errorf("composite = %d/%d, want 12/2", n, s)
	}
}

// seededDump is a dump whose counts differ from bucket to bucket, so a
// decoder that misplaces one chunk cannot round-trip it.
func seededDump(t testing.TB) (*Histogram, []byte) {
	h := &Histogram{}
	for i := range h.Normal {
		h.Normal[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		h.Stalled[i] = uint64(i) * 7
	}
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return h, buf.Bytes()
}

func TestReadHistogramShortReads(t *testing.T) {
	h, data := seededDump(t)
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data-err": iotest.DataErrReader,
	} {
		got, err := ReadHistogram(wrap(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("%s reader: %v", name, err)
		}
		if *got != *h {
			t.Errorf("%s reader: decoded histogram differs", name)
		}
	}
}

func TestReadHistogramTruncatedAtEveryChunk(t *testing.T) {
	_, data := seededDump(t)
	const head = 10
	cuts := []int{head + dumpChunk/2 + 3} // one mid-chunk offset
	for off := head; off < len(data)-4; off += dumpChunk {
		cuts = append(cuts, off)
	}
	if want := 1 + 2*Buckets*8/dumpChunk; len(cuts) != want {
		t.Fatalf("%d cuts, want %d", len(cuts), want)
	}
	for _, cut := range cuts {
		var got *Histogram
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("truncated at %d: panic %v", cut, p)
				}
			}()
			got, err = ReadHistogram(bytes.NewReader(data[:cut]))
		}()
		if got != nil {
			t.Errorf("truncated at %d: returned a partial histogram", cut)
		}
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "truncated while reading counts") {
			t.Errorf("truncated at %d: err = %v, want a truncated-counts ErrCorrupt", cut, err)
		}
	}
}

func TestWriteToMatchesWholeSetEncoding(t *testing.T) {
	// The chunked encoder must emit exactly the bytes of the format
	// spelled out field by field.
	h, data := seededDump(t)
	var want bytes.Buffer
	want.WriteString(dumpMagic)
	want.Write([]byte{dumpVersion, 0})
	want.Write([]byte{Buckets & 0xff, Buckets >> 8, 0, 0})
	for _, set := range h.countSets() {
		for _, v := range set {
			for b := 0; b < 8; b++ {
				want.WriteByte(byte(v >> (8 * b)))
			}
		}
	}
	sum := crc32.ChecksumIEEE(want.Bytes())
	want.Write([]byte{byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24)})
	if !bytes.Equal(data, want.Bytes()) {
		t.Fatal("WriteTo output differs from the field-by-field encoding")
	}
}

// FuzzReadHistogram feeds arbitrary bytes to the dump reader: it must
// never panic and never accept corrupt data silently.
func FuzzReadHistogram(f *testing.F) {
	h := &Histogram{}
	h.Normal[3] = 9
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:10+dumpChunk])     // truncated at a chunk boundary
	f.Add(buf.Bytes()[:10+3*dumpChunk/2]) // truncated mid-chunk
	f.Add([]byte("UPCH"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadHistogram(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must round-trip identically.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted dump does not round-trip")
		}
	})
}
