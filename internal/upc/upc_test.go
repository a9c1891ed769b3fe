package upc

import (
	"testing"
	"testing/quick"
)

func TestTickRequiresRunning(t *testing.T) {
	m := New()
	m.Tick(5, false)
	if n, _ := m.Read(5); n != 0 {
		t.Error("stopped monitor counted")
	}
	m.Start()
	m.Tick(5, false)
	m.Tick(5, true)
	m.Tick(5, true)
	n, s := m.Read(5)
	if n != 1 || s != 2 {
		t.Errorf("counts = %d/%d, want 1/2", n, s)
	}
	m.Stop()
	m.Tick(5, false)
	if n, _ := m.Read(5); n != 1 {
		t.Error("stopped monitor counted after Stop")
	}
}

func TestClear(t *testing.T) {
	m := New()
	m.Start()
	m.Tick(1, false)
	m.Tick(2, true)
	m.Clear()
	if n, s := m.Read(1); n != 0 || s != 0 {
		t.Error("clear did not zero bucket 1")
	}
	if _, s := m.Read(2); s != 0 {
		t.Error("clear did not zero stalled set")
	}
}

func TestSnapshotAndAdd(t *testing.T) {
	m := New()
	m.Start()
	for i := 0; i < 10; i++ {
		m.Tick(100, false)
	}
	m.Tick(200, true)
	h1 := m.Snapshot()
	m.Clear()
	m.Tick(100, false)
	h2 := m.Snapshot()

	h1.Add(h2)
	if n, _ := h1.At(100); n != 11 {
		t.Errorf("composite bucket 100 = %d, want 11", n)
	}
	if got := h1.TotalCycles(); got != 12 {
		t.Errorf("TotalCycles = %d, want 12", got)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	m := New()
	m.Start()
	m.Tick(7, false)
	h := m.Snapshot()
	m.Tick(7, false)
	if n, _ := h.At(7); n != 1 {
		t.Error("snapshot aliases live counters")
	}
}

func TestSaturation(t *testing.T) {
	m := New()
	m.Start()
	m.counts[3] = counterMax
	m.Tick(3, false)
	if !m.Saturated() {
		t.Error("saturation not detected")
	}
	if m.counts[3] != counterMax {
		t.Error("counter wrapped past capacity")
	}
	m.Clear()
	if m.Saturated() {
		t.Error("Clear did not reset saturation")
	}
}

func TestSaturationStalledSet(t *testing.T) {
	// The stalled count set saturates independently of the normal set
	// (§4.3: the board keeps two sets of counts).
	m := New()
	m.Start()
	m.counts[9+Buckets] = counterMax
	m.Tick(9, true)
	if !m.Saturated() {
		t.Error("stalled-set saturation not detected")
	}
	if m.counts[9+Buckets] != counterMax {
		t.Error("stalled counter wrapped past capacity")
	}
	// The normal set at the same address is unaffected and still counts.
	m.Tick(9, false)
	if n, _ := m.Read(9); n != 1 {
		t.Errorf("normal count = %d, want 1 after stalled saturation", n)
	}
	// Saturation latches: it stays set even for later in-range ticks.
	m.Tick(10, false)
	if !m.Saturated() {
		t.Error("saturation flag did not latch")
	}
}

// TestTickFastLazySaturation: TickFast defers the saturation clamp to
// reconciliation, and the clamped result is bit-exact with the eagerly
// saturating Tick path.
func TestTickFastLazySaturation(t *testing.T) {
	m := New()
	m.Start()
	m.counts[7] = counterMax - 1
	m.counts[8+Buckets] = counterMax - 1
	for i := 0; i < 4; i++ {
		m.TickFast(7, false)
		m.TickFast(8, true)
	}
	m.Stop()
	if !m.Saturated() {
		t.Fatal("overflowed counter did not latch saturation")
	}
	h := m.Snapshot()
	if n, _ := h.At(7); n != counterMax {
		t.Errorf("normal bucket 7 = %d, want clamp at %d", n, counterMax)
	}
	if _, n := h.At(8); n != counterMax {
		t.Errorf("stalled bucket 8 = %d, want clamp at %d", n, counterMax)
	}
}

func TestStartStopClearSemantics(t *testing.T) {
	m := New()

	// Start is idempotent.
	m.Start()
	m.Start()
	m.Tick(1, false)
	if n, _ := m.Read(1); n != 1 {
		t.Errorf("count = %d after double Start + one tick", n)
	}

	// Clear while running zeroes buckets but does NOT stop collection —
	// run state lives in the CSR run bit, not the buckets.
	m.Clear()
	if !m.Running() {
		t.Error("Clear stopped the monitor")
	}
	m.Tick(1, false)
	if n, _ := m.Read(1); n != 1 {
		t.Errorf("count = %d after Clear while running", n)
	}

	// Stop is idempotent, and Start resumes accumulation into the same
	// buckets (stop/start without clear continues the measurement).
	m.Stop()
	m.Stop()
	m.Tick(1, false)
	m.Start()
	m.Tick(1, false)
	if n, _ := m.Read(1); n != 2 {
		t.Errorf("count = %d, want 2: stop/start should not clear", n)
	}

	// Clear while stopped leaves the monitor stopped.
	m.Stop()
	m.Clear()
	if m.Running() {
		t.Error("Clear started a stopped monitor")
	}
	if m.Snapshot().TotalCycles() != 0 {
		t.Error("Clear left counts behind")
	}
}

func TestBusClearWhileRunningKeepsRunning(t *testing.T) {
	// A CSR write with both run and clear set is the measurement scripts'
	// "reset and go": buckets zero, collection continues.
	m := New()
	b := NewBus(m)
	b.WriteWord(RegCSR, CSRRun)
	m.Tick(3, false)
	if err := b.WriteWord(RegCSR, CSRRun|CSRClear); err != nil {
		t.Fatal(err)
	}
	if !m.Running() {
		t.Error("run+clear write stopped the monitor")
	}
	if n, _ := m.Read(3); n != 0 {
		t.Error("run+clear write did not clear")
	}
	m.Tick(3, false)
	if n, _ := m.Read(3); n != 1 {
		t.Error("monitor not counting after run+clear")
	}
}

func TestBusControl(t *testing.T) {
	m := New()
	b := NewBus(m)
	if err := b.WriteWord(RegCSR, CSRRun); err != nil {
		t.Fatal(err)
	}
	if !m.Running() {
		t.Error("CSR run bit did not start the monitor")
	}
	m.Tick(42, false)
	m.Tick(42, false)
	m.Tick(42, true)

	// Read the normal count of bucket 42.
	if err := b.WriteWord(RegAddr, 42); err != nil {
		t.Fatal(err)
	}
	lo, err := b.ReadWord(RegDataLo)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 2 {
		t.Errorf("normal count = %d, want 2", lo)
	}
	// Switch to the stalled set.
	if err := b.WriteWord(RegCSR, CSRRun|CSRStallSet); err != nil {
		t.Fatal(err)
	}
	lo, _ = b.ReadWord(RegDataLo)
	if lo != 1 {
		t.Errorf("stalled count = %d, want 1", lo)
	}

	// Stop and clear via CSR.
	if err := b.WriteWord(RegCSR, CSRClear); err != nil {
		t.Fatal(err)
	}
	if m.Running() {
		t.Error("CSR write without run bit should stop")
	}
	if n, _ := m.Read(42); n != 0 {
		t.Error("CSR clear bit did not clear")
	}
}

func TestBusCSRStatus(t *testing.T) {
	m := New()
	b := NewBus(m)
	m.Start()
	m.saturated = true
	v, err := b.ReadWord(RegCSR)
	if err != nil {
		t.Fatal(err)
	}
	if v&CSRRun == 0 || v&CSRSat == 0 {
		t.Errorf("CSR = %o, want run+sat bits", v)
	}
}

func TestBusLatchConsistency(t *testing.T) {
	m := New()
	b := NewBus(m)
	m.Start()
	for i := 0; i < 0x1_0005; i++ { // force a count > 16 bits
		m.Tick(9, false)
	}
	b.WriteWord(RegAddr, 9)
	lo, _ := b.ReadWord(RegDataLo)
	hi, _ := b.ReadWord(RegDataHi)
	got := uint64(hi)<<16 | uint64(lo)
	if got != 0x1_0005 {
		t.Errorf("latched read = %#x, want 0x10005", got)
	}
}

func TestBusErrors(t *testing.T) {
	b := NewBus(New())
	if _, err := b.ReadWord(0o10); err == nil {
		t.Error("read of bad register should fail")
	}
	if err := b.WriteWord(0o10, 0); err == nil {
		t.Error("write of bad register should fail")
	}
	if err := b.WriteWord(RegDataLo, 1); err == nil {
		t.Error("data registers must be read-only")
	}
}

func TestBucketAddressWraps(t *testing.T) {
	m := New()
	m.Start()
	m.Tick(uint16(Buckets), false) // wraps to 0 (16384 % 16384)
	if n, _ := m.Read(0); n != 1 {
		t.Error("address wrap mismatch between Tick and Read")
	}
}

func TestQuickTickSum(t *testing.T) {
	// Property: total cycles equals number of ticks, regardless of
	// address/stall pattern.
	m := New()
	m.Start()
	ticks := 0
	f := func(addr uint16, stalled bool) bool {
		m.Tick(addr, stalled)
		ticks++
		return m.Snapshot().TotalCycles() == uint64(ticks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
