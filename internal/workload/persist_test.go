package workload

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	orig, err := Generate(TimesharingA(4000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d, wrote %d", n, buf.Len())
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name {
		t.Errorf("name %q != %q", got.Name, orig.Name)
	}
	if len(got.Items) != len(orig.Items) {
		t.Fatalf("items %d != %d", len(got.Items), len(orig.Items))
	}
	for i := range orig.Items {
		a, b := orig.Items[i], got.Items[i]
		if a.Kind != b.Kind {
			t.Fatalf("item %d kind", i)
		}
		if a.Kind != KindInstr {
			if a.HandlerPC != b.HandlerPC {
				t.Fatalf("item %d handler", i)
			}
			continue
		}
		if a.In.Op != b.In.Op || a.In.PC != b.In.PC || a.In.Taken != b.In.Taken ||
			a.In.Target != b.In.Target || len(a.In.Specs) != len(b.In.Specs) {
			t.Fatalf("item %d instruction differs", i)
		}
	}
	if got.Program.Bytes() != orig.Program.Bytes() {
		t.Errorf("program bytes %d != %d", got.Program.Bytes(), orig.Program.Bytes())
	}
	// Every materialized byte must survive.
	checked := 0
	for _, it := range orig.Items {
		if it.Kind != KindInstr {
			continue
		}
		for off := 0; off < it.In.Size(); off++ {
			va := it.In.PC + uint32(off)
			ob, _ := orig.Program.Byte(va)
			gb, ok := got.Program.Byte(va)
			if !ok || gb != ob {
				t.Fatalf("byte %#x differs", va)
			}
		}
		if checked++; checked > 300 {
			break
		}
	}
	checkPCChain(t, got)
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage trace accepted")
	}
}

// TestDecodedPageZeroesUnusedBytes: a stored page may carry bytes where
// its used map says no code is, or have no used map at all; Page hands
// out whole pages to the IB, so decoding must leave those bytes zero, as
// Put does, and Byte must report them as holding no code.
func TestDecodedPageZeroesUnusedBytes(t *testing.T) {
	page, used := make([]byte, pageSize), make([]bool, pageSize)
	for i := range page {
		page[i] = 0xAB
	}
	used[3] = true
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(programGob{
		Pages: map[uint32][]byte{2: page, 5: page},
		Used:  map[uint32][]bool{2: used},
	}); err != nil {
		t.Fatal(err)
	}
	var p Program
	if err := p.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	for pg, wantUsed := range map[uint32]int{2: 3, 5: -1} {
		data := p.Page(pg * pageSize)
		for i, b := range data {
			want := byte(0)
			if i == wantUsed {
				want = 0xAB
			}
			if b != want {
				t.Fatalf("page %d byte %d = %#x, want %#x", pg, i, b, want)
			}
			if b, ok := p.Byte(pg*pageSize + uint32(i)); ok != (i == wantUsed) || b != want {
				t.Fatalf("page %d: Byte(%d) = %#x, %t", pg, i, b, ok)
			}
		}
	}
}
