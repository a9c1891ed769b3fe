package ibox

import (
	"errors"
	"math/rand"
	"testing"

	"vax780/internal/mem"
)

// linearSource returns pages holding va&0xFF at every va, for the given
// page numbers (nil: every page).
func linearSource(materialized map[uint32]bool) PageSource {
	return func(va uint32) *[CodePageBytes]byte {
		pg := va / CodePageBytes
		if materialized != nil && !materialized[pg] {
			return nil
		}
		var page [CodePageBytes]byte
		for i := range page {
			page[i] = byte(pg*CodePageBytes + uint32(i))
		}
		return &page
	}
}

func warmIB(t *testing.T, ib *IBox, m *mem.System, start uint32) uint64 {
	t.Helper()
	m.InsertTB(start)
	m.InsertTB(start + 511)
	ib.Redirect(start)
	now := uint64(0)
	for i := 0; i < 200 && ib.bufLen < Capacity; i++ {
		ib.Tick(now, true)
		now++
	}
	return now
}

func TestFillsToCapacity(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	warmIB(t, ib, m, 0x1000)
	if len(ib.Bytes()) != Capacity {
		t.Fatalf("IB filled to %d bytes, want %d", len(ib.Bytes()), Capacity)
	}
	for i, b := range ib.Bytes() {
		if b != byte(0x1000+i) {
			t.Errorf("byte %d = %#x, want %#x", i, b, byte(0x1000+i))
		}
	}
	if ib.BufVA() != 0x1000 {
		t.Errorf("BufVA = %#x", ib.BufVA())
	}
}

func TestConsumeShifts(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	warmIB(t, ib, m, 0x1000)
	ib.Consume(3)
	if ib.BufVA() != 0x1003 {
		t.Errorf("BufVA = %#x, want 0x1003", ib.BufVA())
	}
	if ib.Bytes()[0] != byte(0x1003&0xFF) {
		t.Errorf("front byte = %#x", ib.Bytes()[0])
	}
}

func TestConsumeTooMuchErrors(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	if err := ib.Consume(1); !errors.Is(err, ErrConsumeOverrun) {
		t.Errorf("over-consume error = %v, want ErrConsumeOverrun", err)
	}
}

func TestRedirectFlushes(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	warmIB(t, ib, m, 0x1000)
	m.InsertTB(0x2000)
	ib.Redirect(0x2000)
	if len(ib.Bytes()) != 0 || ib.BufVA() != 0x2000 {
		t.Errorf("redirect did not flush: len=%d va=%#x", len(ib.Bytes()), ib.BufVA())
	}
	// Refill delivers target-stream bytes.
	for i := uint64(100); i < 150 && len(ib.Bytes()) < 4; i++ {
		ib.Tick(i, true)
	}
	if len(ib.Bytes()) == 0 || ib.Bytes()[0] != byte(0x2000&0xFF) {
		t.Error("refill after redirect delivered wrong bytes")
	}
}

func TestITBMissFlag(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	ib.Redirect(0x3000) // no TB entry
	ib.Tick(0, true)
	miss, va := ib.ITBMiss()
	if !miss || va != 0x3000 {
		t.Fatalf("ITBMiss = %v %#x, want true 0x3000", miss, va)
	}
	if m.Stats.ITBMisses != 1 {
		t.Errorf("ITBMisses = %d, want 1", m.Stats.ITBMisses)
	}
	// While flagged, no refills are issued and the flag is not re-counted.
	for i := uint64(1); i < 10; i++ {
		ib.Tick(i, true)
	}
	if m.Stats.ITBMisses != 1 {
		t.Errorf("ITBMisses re-counted: %d", m.Stats.ITBMisses)
	}
	if len(ib.Bytes()) != 0 {
		t.Error("bytes delivered during ITB miss")
	}
	// Service and resume.
	m.InsertTB(0x3000)
	ib.ClearITBMiss()
	for i := uint64(10); i < 60 && len(ib.Bytes()) == 0; i++ {
		ib.Tick(i, true)
	}
	if len(ib.Bytes()) == 0 {
		t.Error("no refill after ITB miss service")
	}
}

func TestPortArbitration(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	m.InsertTB(0x1000)
	ib.Redirect(0x1000)
	// With the port always busy, the IB never issues.
	for i := uint64(0); i < 20; i++ {
		ib.Tick(i, false)
	}
	if m.Stats.IReads != 0 {
		t.Errorf("IB issued %d refs with the port busy", m.Stats.IReads)
	}
}

func TestRepeatedReferencesToSameLongword(t *testing.T) {
	// Fill the IB, consume one byte, and watch the refill re-reference the
	// longword it already partially took (§4.1: up to four references).
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	now := warmIB(t, ib, m, 0x1000)
	refsAfterFill := m.Stats.IReads
	ib.Consume(1)
	for i := now; i < now+10 && len(ib.Bytes()) < Capacity; i++ {
		ib.Tick(i, true)
	}
	if m.Stats.IReads <= refsAfterFill {
		t.Error("no re-reference after partial consume")
	}
	// The refill delivered exactly 1 byte (the freed slot) from a longword
	// it had already referenced.
	if len(ib.Bytes()) != Capacity {
		t.Errorf("IB not refilled: %d", len(ib.Bytes()))
	}
}

func TestBytesDeliveredAccounting(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	warmIB(t, ib, m, 0x1000)
	if m.Stats.IBytes != uint64(len(ib.Bytes())) {
		t.Errorf("IBytes = %d, buffered %d", m.Stats.IBytes, len(ib.Bytes()))
	}
	// Delivery per reference ≤ 4 (one longword).
	if m.Stats.IBytes > 4*m.Stats.IReads {
		t.Errorf("delivered %d bytes over %d refs (>4/ref)", m.Stats.IBytes, m.Stats.IReads)
	}
}

func TestUnmaterializedBytesAreZero(t *testing.T) {
	// Page 0x1000/512 holds code; the next page holds none, so the IB
	// filled from 4 bytes before the boundary gets the linear pattern,
	// then zero filler.
	mat := map[uint32]bool{0x1000 / CodePageBytes: true}
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(mat))
	warmIB(t, ib, m, 0x11FC)
	for i, b := range ib.Bytes() {
		want := byte(0xFC + i)
		if i >= 4 {
			want = 0
		}
		if b != want {
			t.Errorf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestForceResyncCounts(t *testing.T) {
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	ib.ForceResync(0x5000)
	if ib.Resyncs != 1 || ib.BufVA() != 0x5000 {
		t.Errorf("resync: count=%d va=%#x", ib.Resyncs, ib.BufVA())
	}
}

// TestBufferMirrorsCodeStream drives the IB through random consumes and
// redirects at every alignment, across page boundaries, and checks after
// every cycle that the buffer holds exactly the code bytes from BufVA
// on: the word-wide refill merge and the shifting Consume must never
// drop, repeat or misplace a byte.
func TestBufferMirrorsCodeStream(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := mem.New(mem.Config{})
	ib := New(m, linearSource(nil))
	for pg := uint32(0x1000); pg < 0x1000+8*512; pg += 512 {
		m.InsertTB(pg)
	}
	ib.Redirect(0x1000 + 509)
	for now := uint64(0); now < 20_000; now++ {
		ib.Tick(now, rng.Intn(4) != 0)
		for i, b := range ib.Bytes() {
			if want := byte(ib.BufVA() + uint32(i)); b != want {
				t.Fatalf("cycle %d: byte %d at VA %#x = %#x, want %#x", now, i, ib.BufVA()+uint32(i), b, want)
			}
		}
		switch n := len(ib.Bytes()); {
		case rng.Intn(50) == 0:
			ib.Redirect(0x1000 + uint32(rng.Intn(6*512)))
		case n > 0 && rng.Intn(3) == 0:
			if err := ib.Consume(1 + rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ib.Consumed == 0 {
		t.Fatal("stream consumed nothing")
	}
}
