package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultsAre780(t *testing.T) {
	s := New(Config{})
	c := s.Config()
	if c.CacheBytes != 8<<10 || c.CacheWays != 2 || c.CacheBlock != 8 {
		t.Errorf("cache geometry %d/%d/%d, want 8192/2/8", c.CacheBytes, c.CacheWays, c.CacheBlock)
	}
	if c.TBEntries != 128 || c.TBWays != 2 {
		t.Errorf("TB geometry %d/%d, want 128/2", c.TBEntries, c.TBWays)
	}
	if c.MissLatency != 6 || c.WriteBusy != 6 {
		t.Errorf("latencies %d/%d, want 6/6", c.MissLatency, c.WriteBusy)
	}
	if c.PageBytes != 512 {
		t.Errorf("page size %d, want 512", c.PageBytes)
	}
}

func TestTranslateMissThenHit(t *testing.T) {
	s := New(Config{})
	va := uint32(0x1234)
	if _, ok := s.Translate(va); ok {
		t.Fatal("cold TB should miss")
	}
	s.InsertTB(va)
	pa, ok := s.Translate(va)
	if !ok {
		t.Fatal("TB should hit after insert")
	}
	if pa%512 != va%512 {
		t.Errorf("page offset not preserved: pa=%#x va=%#x", pa, va)
	}
	// Same page, different offset: still a hit, same frame.
	pa2, ok := s.Translate(va + 4)
	if !ok || pa2 != pa+4 {
		t.Errorf("same-page translation inconsistent: %#x vs %#x", pa2, pa+4)
	}
}

func TestTranslationStableAcrossCalls(t *testing.T) {
	s := New(Config{})
	s.InsertTB(0x4000)
	pa1, _ := s.Translate(0x4000)
	pa2, _ := s.Translate(0x4000)
	if pa1 != pa2 {
		t.Error("translation not stable")
	}
}

func TestProcessFlushKeepsSystemHalf(t *testing.T) {
	s := New(Config{})
	user := uint32(0x0000_2000)
	sys := uint32(0x8000_2000)
	s.InsertTB(user)
	s.InsertTB(sys)
	s.FlushProcessTB()
	if _, ok := s.Translate(user); ok {
		t.Error("process translation survived process flush")
	}
	if _, ok := s.Translate(sys); !ok {
		t.Error("system translation lost on process flush")
	}
}

func TestASIDSeparatesProcessSpaces(t *testing.T) {
	s := New(Config{})
	va := uint32(0x6000)
	s.SetASID(1)
	s.InsertTB(va)
	pa1, _ := s.Translate(va)
	s.SetASID(2)
	// The TB is NOT flushed by SetASID (that is LDPCTX's job) — the entry
	// still hits, but the frame differs per ASID, so a machine that fails
	// to flush would see the wrong mapping. Here we only check frames
	// differ across ASIDs after a proper flush+insert.
	s.FlushProcessTB()
	s.InsertTB(va)
	pa2, _ := s.Translate(va)
	if pa1 == pa2 {
		t.Error("different ASIDs map to identical frames (hash degenerate)")
	}
	// System space is shared: same frame regardless of ASID.
	sysVA := uint32(0x8000_4000)
	s.InsertTB(sysVA)
	sp1, _ := s.Translate(sysVA)
	s.SetASID(7)
	sp2, _ := s.Translate(sysVA)
	if sp1 != sp2 {
		t.Error("system space frame changed with ASID")
	}
}

func TestDReadMissThenHit(t *testing.T) {
	s := New(Config{})
	stall := s.DRead(0x1000, 100)
	if stall != 6 {
		t.Errorf("cold read stall = %d, want 6", stall)
	}
	if s.Stats.DReadMisses != 1 || s.Stats.DReads != 1 {
		t.Errorf("stats: %+v", s.Stats)
	}
	// Same block: hit, no stall.
	if stall := s.DRead(0x1004, 110); stall != 0 {
		t.Errorf("same-block read stalled %d", stall)
	}
	if s.Stats.DReadMisses != 1 {
		t.Error("hit counted as miss")
	}
}

func TestWriteBufferStall(t *testing.T) {
	s := New(Config{})
	if stall := s.DWrite(0x2000, 100); stall != 0 {
		t.Errorf("first write stalled %d", stall)
	}
	// A write 2 cycles later finds the buffer busy: the 11/780 stalls the
	// difference (6-cycle buffer occupancy minus 2 elapsed).
	if stall := s.DWrite(0x2004, 102); stall != 4 {
		t.Errorf("second write stall = %d, want 4", stall)
	}
	// A write 6+ cycles after the previous write's issue does not stall.
	if stall := s.DWrite(0x2008, 120); stall != 0 {
		t.Errorf("spaced write stalled %d", stall)
	}
	if s.Stats.WriteStall != 4 {
		t.Errorf("WriteStall = %d, want 4", s.Stats.WriteStall)
	}
}

func TestWriteNoAllocate(t *testing.T) {
	s := New(Config{})
	s.DWrite(0x3000, 0)
	// The written block must not have been allocated: a read of it misses.
	if stall := s.DRead(0x3000, 50); stall == 0 {
		t.Error("write allocated a cache block; 11/780 is no-write-allocate")
	}
	// But a write to a resident block updates it (and the block stays).
	s.DRead(0x4000, 100) // fill
	s.DWrite(0x4000, 150)
	if stall := s.DRead(0x4000, 200); stall != 0 {
		t.Error("write invalidated a resident block")
	}
}

func TestSBIContentionDelaysConcurrentMisses(t *testing.T) {
	s := New(Config{})
	// An IB miss occupies the SBI; an immediately following D-read miss
	// waits behind it.
	lat, miss := s.IRead(0x5000, 100)
	if !miss || lat != 6 {
		t.Fatalf("IRead: lat=%d miss=%v", lat, miss)
	}
	stall := s.DRead(0x6000, 102)
	if stall != 10 { // SBI free at 106, data at 112, stall = 112-102
		t.Errorf("contended read stall = %d, want 10", stall)
	}
}

func TestIReadCountsBytes(t *testing.T) {
	s := New(Config{})
	s.IRead(0x7000, 0)
	s.NoteIBytes(4)
	s.IRead(0x7004, 10)
	s.NoteIBytes(2)
	if s.Stats.IReads != 2 || s.Stats.IBytes != 6 {
		t.Errorf("IReads=%d IBytes=%d", s.Stats.IReads, s.Stats.IBytes)
	}
}

func TestPTEReadCounted(t *testing.T) {
	s := New(Config{})
	pte := s.PTEAddr(0x9000)
	s.PTERead(pte, 0)
	if s.Stats.PTEReads != 1 || s.Stats.PTEReadMisses != 1 {
		t.Errorf("PTE stats: %+v", s.Stats)
	}
	// Adjacent page's PTE shares the block often enough to hit sometimes;
	// at minimum the same PTE re-read hits.
	if stall := s.PTERead(pte, 20); stall != 0 {
		t.Error("re-read of same PTE missed")
	}
}

func TestPTEAddrAdjacency(t *testing.T) {
	s := New(Config{})
	a := s.PTEAddr(0 * 512)
	b := s.PTEAddr(1 * 512)
	if b != a+4 {
		t.Errorf("adjacent pages' PTEs not adjacent: %#x %#x", a, b)
	}
}

func TestNoteCounters(t *testing.T) {
	s := New(Config{})
	s.NoteTBMiss(false)
	s.NoteTBMiss(true)
	s.NoteTBMiss(true)
	s.NoteUnaligned()
	if s.Stats.DTBMisses != 1 || s.Stats.ITBMisses != 2 || s.Stats.Unaligned != 1 {
		t.Errorf("note counters: %+v", s.Stats)
	}
}

func TestCacheEvictionLRUish(t *testing.T) {
	// Fill one set beyond its associativity and check the first block is
	// gone: 2-way, 512 sets, 8-byte blocks → same set every 4096 bytes.
	s := New(Config{})
	s.DRead(0x0000, 0)
	s.DRead(0x1000, 10)
	s.DRead(0x2000, 20) // evicts one of the first two
	miss := 0
	if s.DRead(0x0000, 30) > 0 {
		miss++
	}
	if s.DRead(0x1000, 40) > 0 {
		miss++
	}
	if miss == 0 {
		t.Error("no eviction after overfilling a set")
	}
}

func TestQuickTranslationOffsetsPreserved(t *testing.T) {
	s := New(Config{})
	f := func(va uint32) bool {
		s.InsertTB(va)
		pa, ok := s.Translate(va)
		if !ok {
			return false
		}
		return pa%512 == va%512 && pa < uint32(s.Config().MemoryBytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCacheNeverPanicsAndMissRateSane(t *testing.T) {
	s := New(Config{})
	misses := 0
	const n = 10000
	for i := 0; i < n; i++ {
		// A walk over 64 KB in longword steps: sequential longwords share
		// 8-byte blocks (hits) while the 8×-cache working set forces
		// steady misses on block boundaries.
		pa := uint32((i * 4) % (64 << 10))
		if s.DRead(pa, uint64(i*12)) > 0 {
			misses++
		}
	}
	if misses == 0 || misses == n {
		t.Errorf("degenerate miss behaviour: %d/%d", misses, n)
	}
}

func TestStatsString(t *testing.T) {
	s := New(Config{})
	s.DRead(0, 0)
	if s.Stats.String() == "" {
		t.Error("empty stats string")
	}
	d, i := s.Stats.CacheReadMissRate(1)
	if d != 1 || i != 0 {
		t.Errorf("miss rates %f %f", d, i)
	}
	if d, i := s.Stats.CacheReadMissRate(0); d != 0 || i != 0 {
		t.Error("zero-instruction rate should be zero")
	}
}

func TestSBIBusyAccounting(t *testing.T) {
	s := New(Config{})
	s.DRead(0x1000, 0) // miss: 6 SBI cycles
	s.DWrite(0x2000, 20)
	if s.Stats.SBIBusy != 6+6 {
		t.Errorf("SBIBusy = %d, want 12", s.Stats.SBIBusy)
	}
	s.DRead(0x1000, 40) // hit: no SBI traffic
	if s.Stats.SBIBusy != 12 {
		t.Errorf("hit added SBI busy: %d", s.Stats.SBIBusy)
	}
}

func TestRefTraceRecording(t *testing.T) {
	s := New(Config{})
	s.Trace = &RefTrace{}
	s.DRead(0x1000, 0)
	s.DWrite(0x2000, 10)
	s.IRead(0x3000, 20)
	s.PTERead(0x4000, 30)
	want := []Ref{
		{RefDRead, 0x1000}, {RefDWrite, 0x2000},
		{RefIRead, 0x3000}, {RefPTERead, 0x4000},
	}
	if len(s.Trace.Refs) != len(want) {
		t.Fatalf("recorded %d refs", len(s.Trace.Refs))
	}
	for i, w := range want {
		if s.Trace.Refs[i] != w {
			t.Errorf("ref %d = %+v, want %+v", i, s.Trace.Refs[i], w)
		}
	}
	for _, k := range []RefKind{RefDRead, RefDWrite, RefIRead, RefPTERead} {
		if k.String() == "?" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if RefKind(9).String() != "?" {
		t.Error("unknown kind should render ?")
	}
}

func TestVATraceRecording(t *testing.T) {
	s := New(Config{})
	s.VTrace = &VATrace{}
	s.Translate(0x1234)
	s.FlushProcessTB()
	s.Translate(0x8000_0010)
	refs := s.VTrace.Refs
	if len(refs) != 3 {
		t.Fatalf("recorded %d events", len(refs))
	}
	if refs[0].Flush || refs[0].VA != 0x1234 {
		t.Errorf("event 0: %+v", refs[0])
	}
	if !refs[1].Flush {
		t.Error("event 1 should be a flush")
	}
	if refs[2].VA != 0x8000_0010 {
		t.Errorf("event 2: %+v", refs[2])
	}
}

func TestTracingOffByDefault(t *testing.T) {
	s := New(Config{})
	s.DRead(0x1000, 0)
	s.Translate(0x1000)
	if s.Trace != nil || s.VTrace != nil {
		t.Error("tracing should be nil by default")
	}
}

// TestTranslateMatchesDivision holds the shift-and-mask translation to
// the division-based formulas it replaced: frame = (key % frames) ×
// page, offset = va % page, and the PTE offset modulo half the region.
func TestTranslateMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	for _, page := range []int{2, 512, 4096} {
		s := New(Config{PageBytes: page})
		cfg := s.Config()
		pg, frames, half := uint32(page), uint32(cfg.MemoryBytes/page), uint32(cfg.PTERegionBytes/2)
		for i := 0; i < 5000; i++ {
			va, asid := rng.Uint32(), uint32(rng.Intn(40))
			s.SetASID(asid)
			s.InsertTB(va)
			pa, ok := s.Translate(va)
			if !ok {
				t.Fatalf("page %d: %#x missed right after InsertTB", page, va)
			}
			vpn := va / pg
			key := vpn * 2246822519
			wantPTE := uint32(cfg.MemoryBytes-cfg.PTERegionBytes) + (vpn*4)%half
			if !systemSpace(va) {
				key = vpn*2654435761 + asid*40503
				wantPTE = uint32(cfg.MemoryBytes-cfg.PTERegionBytes) + half + ((asid*16384+vpn)*4)%half
			}
			if want := (key%frames)*pg + va%pg; pa != want {
				t.Fatalf("page %d: Translate(%#x) = %#x, want %#x", page, va, pa, want)
			}
			if got := s.PTEAddr(va); got != wantPTE {
				t.Fatalf("page %d: PTEAddr(%#x) = %#x, want %#x", page, va, got, wantPTE)
			}
		}
	}
}

// TestNewRejectsUnpackableGeometry: New requires a power-of-two page and
// cache blocks of at least 2 bytes (tag words keep bit 31 for valid).
func TestNewRejectsUnpackableGeometry(t *testing.T) {
	for _, cfg := range []Config{{PageBytes: 384}, {PageBytes: 1}, {PageBytes: -512}, {CacheBlock: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
