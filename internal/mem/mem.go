// Package mem models the VAX-11/780 memory subsystem with the timing
// behaviour the paper measures: a microcode-managed translation buffer, a
// write-through data cache, a one-longword write buffer, and the SBI path
// to main memory.
//
// The model is timing-only: it decides how many EBOX cycles each reference
// stalls and keeps the hardware event counters that the paper's companion
// cache study (reference [2]) provides — the UPC monitor itself cannot see
// cache or IB events, and neither does the analysis package; it reads
// these counters through the machine's "cache study" channel instead.
package mem

import "fmt"

// Config holds the memory system geometry and timing. Zero fields are
// replaced by the 11/780 values by Default.
type Config struct {
	CacheBytes     int // data cache size (11/780: 8 KB)
	CacheWays      int // associativity (2)
	CacheBlock     int // block size in bytes (8)
	TBEntries      int // translation buffer entries (128, split in halves)
	TBWays         int // TB associativity (2)
	PageBytes      int // VAX page size (512)
	MissLatency    int // cycles from SBI request to data (6, simplest case)
	WriteBusy      int // cycles the write buffer is busy per write (6)
	MemoryBytes    int // main memory size (8 MB on all measured systems)
	PTERegionBytes int // physical region holding page tables
}

// Default returns the VAX-11/780 configuration used in the paper's
// measurements.
func Default() Config {
	return Config{
		CacheBytes:     8 << 10,
		CacheWays:      2,
		CacheBlock:     8,
		TBEntries:      128,
		TBWays:         2,
		PageBytes:      512,
		MissLatency:    6,
		WriteBusy:      6,
		MemoryBytes:    8 << 20,
		PTERegionBytes: 512 << 10,
	}
}

func (c *Config) fillDefaults() {
	d := Default()
	if c.CacheBytes == 0 {
		c.CacheBytes = d.CacheBytes
	}
	if c.CacheWays == 0 {
		c.CacheWays = d.CacheWays
	}
	if c.CacheBlock == 0 {
		c.CacheBlock = d.CacheBlock
	}
	if c.TBEntries == 0 {
		c.TBEntries = d.TBEntries
	}
	if c.TBWays == 0 {
		c.TBWays = d.TBWays
	}
	if c.PageBytes == 0 {
		c.PageBytes = d.PageBytes
	}
	if c.MissLatency == 0 {
		c.MissLatency = d.MissLatency
	}
	if c.WriteBusy == 0 {
		c.WriteBusy = d.WriteBusy
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = d.MemoryBytes
	}
	if c.PTERegionBytes == 0 {
		c.PTERegionBytes = d.PTERegionBytes
	}
}

// FaultInjector is the memory subsystem's fault hook (see
// internal/faults): a deterministic plan deciding, per D-stream read,
// whether the reference takes a memory parity error. nil on a healthy
// system — the fast path is one pointer check per reference.
type FaultInjector interface {
	// MemParity reports whether this read takes a parity error.
	MemParity(pa uint32) bool
}

// Stats are the hardware event counters: the numbers the paper's Section 4
// takes from the earlier cache study rather than from the UPC histogram.
type Stats struct {
	DReads        uint64 // D-stream read references (physical)
	DWrites       uint64 // D-stream write references (physical)
	DReadMisses   uint64
	IReads        uint64 // I-stream (IB) references
	IReadMisses   uint64
	IBytes        uint64 // bytes delivered to the IB
	DTBMisses     uint64
	ITBMisses     uint64
	PTEReads      uint64
	PTEReadMisses uint64
	ReadStall     uint64 // cycles
	WriteStall    uint64 // cycles
	SBIBusy       uint64 // cycles the backplane bus was occupied
	Unaligned     uint64 // unaligned D-stream references (extra physical refs)
}

// Add accumulates other into st — the counter summing behind the
// paper's composite workload and the telemetry interval totals.
func (st *Stats) Add(other *Stats) {
	st.DReads += other.DReads
	st.DWrites += other.DWrites
	st.DReadMisses += other.DReadMisses
	st.IReads += other.IReads
	st.IReadMisses += other.IReadMisses
	st.IBytes += other.IBytes
	st.DTBMisses += other.DTBMisses
	st.ITBMisses += other.ITBMisses
	st.PTEReads += other.PTEReads
	st.PTEReadMisses += other.PTEReadMisses
	st.ReadStall += other.ReadStall
	st.WriteStall += other.WriteStall
	st.SBIBusy += other.SBIBusy
	st.Unaligned += other.Unaligned
}

// Sub subtracts other from st: the delta between two counter snapshots,
// the unit of the telemetry layer's interval time series.
func (st *Stats) Sub(other *Stats) {
	st.DReads -= other.DReads
	st.DWrites -= other.DWrites
	st.DReadMisses -= other.DReadMisses
	st.IReads -= other.IReads
	st.IReadMisses -= other.IReadMisses
	st.IBytes -= other.IBytes
	st.DTBMisses -= other.DTBMisses
	st.ITBMisses -= other.ITBMisses
	st.PTEReads -= other.PTEReads
	st.PTEReadMisses -= other.PTEReadMisses
	st.ReadStall -= other.ReadStall
	st.WriteStall -= other.WriteStall
	st.SBIBusy -= other.SBIBusy
	st.Unaligned -= other.Unaligned
}

// System is the memory subsystem.
type System struct {
	cfg   Config
	tb    *TB
	cache *Cache
	Stats Stats

	// Trace, when non-nil, captures every physical reference for the
	// companion cache-study workflow (see RefTrace).
	Trace *RefTrace

	// VTrace, when non-nil, captures every TB probe and flush for the
	// companion TB-study workflow (see VATrace).
	VTrace *VATrace

	// fault, when non-nil, injects memory parity errors on reads. A
	// fired parity error is latched in parityPA/parityHit until the
	// EBOX collects it and runs the machine-check abort.
	fault     FaultInjector
	parityPA  uint32
	parityHit bool

	asid uint32 // current process context for process-space translation

	// The page size is a power of two: a VA splits into its page number
	// (va >> pageShift) and offset (va & pageMask). frames and pteHalf
	// reduce frame keys and PTE offsets without a division.
	pageShift uint
	pageMask  uint32
	frames    divisor // page frames in main memory
	pteHalf   divisor // bytes in each half of the page-table region

	// sbiFreeAt is the cycle at which the SBI finishes its current
	// transaction; concurrent activity queues behind it.
	sbiFreeAt uint64
	// wbFreeAt is the cycle at which the one-longword write buffer frees.
	wbFreeAt uint64
}

// New builds a memory system from cfg (zero fields take 11/780 defaults).
// PageBytes must be a power of two and CacheBlock at least 2 bytes; New
// panics otherwise.
func New(cfg Config) *System {
	cfg.fillDefaults()
	if p := cfg.PageBytes; p < 2 || p&(p-1) != 0 {
		panic(fmt.Sprintf("mem: PageBytes %d is not a power of two ≥ 2", p))
	}
	if cfg.CacheBlock < 2 {
		panic(fmt.Sprintf("mem: CacheBlock %d is below 2 bytes", cfg.CacheBlock))
	}
	s := &System{
		cfg:       cfg,
		pageShift: log2(cfg.PageBytes),
		pageMask:  uint32(cfg.PageBytes - 1),
		frames:    newDivisor(cfg.MemoryBytes / cfg.PageBytes),
		pteHalf:   newDivisor(cfg.PTERegionBytes / 2),
	}
	s.tb = newTB(cfg.TBEntries, cfg.TBWays)
	s.cache = newCache(cfg.CacheBytes, cfg.CacheWays, cfg.CacheBlock)
	return s
}

// Config returns the active configuration.
func (s *System) Config() Config { return s.cfg }

// SetFault attaches a fault injector (nil detaches it).
func (s *System) SetFault(f FaultInjector) { s.fault = f }

// TakeParity collects a latched parity error: the faulting physical
// address and whether one fired since the last collection. The EBOX
// checks it after each data reference when a fault plan is attached and
// routes the abort through the machine-check path.
func (s *System) TakeParity() (pa uint32, ok bool) {
	if !s.parityHit {
		return 0, false
	}
	s.parityHit = false
	return s.parityPA, true
}

// SetASID switches the process context used for process-space address
// translation. It does NOT flush the TB: the LDPCTX microcode flow is
// responsible for calling FlushProcessTB, exactly as on the real machine.
func (s *System) SetASID(id uint32) { s.asid = id }

// ASID returns the current process context.
func (s *System) ASID() uint32 { return s.asid }

// FlushProcessTB invalidates the process half of the translation buffer.
func (s *System) FlushProcessTB() {
	s.recordFlush()
	s.tb.flushProcess()
}

// systemSpace reports whether va is in VAX system space (bit 31 set).
func systemSpace(va uint32) bool { return va&0x8000_0000 != 0 }

// Translate probes the TB for va. On a hit it returns the physical
// address. On a miss it returns ok=false and the caller must run the TB
// miss service microcode (which performs the PTE read and calls InsertTB)
// before retrying.
func (s *System) Translate(va uint32) (pa uint32, ok bool) {
	s.recordVA(va)
	vpn := va >> s.pageShift
	sys := systemSpace(va)
	if !s.tb.lookup(vpn, sys) {
		return 0, false
	}
	return s.frame(vpn, sys) | va&s.pageMask, true
}

// InsertTB installs the translation for va, evicting as needed. Called by
// the TB-miss microcode flow after its PTE fetch.
func (s *System) InsertTB(va uint32) {
	s.tb.insert(va>>s.pageShift, systemSpace(va))
}

// frame deterministically assigns a physical frame to each (space, asid,
// vpn) so that physical addresses are stable across the run without
// simulating real page tables.
func (s *System) frame(vpn uint32, sys bool) uint32 {
	key := vpn
	if !sys {
		key = key*2654435761 + s.asid*40503
	} else {
		key = key * 2246822519
	}
	return s.frames.mod(key) << s.pageShift
}

// PTEAddr returns the physical address of the page table entry mapping
// va. Adjacent pages have adjacent PTEs, so PTE reads enjoy the spatial
// locality the real machine's page tables had.
func (s *System) PTEAddr(va uint32) uint32 {
	vpn := va >> s.pageShift
	base := uint32(s.cfg.MemoryBytes - s.cfg.PTERegionBytes)
	var off uint32
	if systemSpace(va) {
		off = s.pteHalf.mod(vpn * 4)
	} else {
		off = uint32(s.cfg.PTERegionBytes/2) + s.pteHalf.mod((s.asid*16384+vpn)*4)
	}
	return base + off
}

// sbiAcquire queues a transaction of busy cycles on the SBI starting no
// earlier than now, returning when its data is available.
func (s *System) sbiAcquire(now uint64, busy int) (dataAt uint64) {
	start := now
	if s.sbiFreeAt > start {
		start = s.sbiFreeAt
	}
	dataAt = start + uint64(busy)
	s.sbiFreeAt = dataAt
	s.Stats.SBIBusy += uint64(busy)
	return dataAt
}

// DRead performs an EBOX D-stream read at physical address pa, returning
// the read-stall cycles the EBOX incurs ("the requesting microinstruction
// simply waits for the data to arrive", §4.3).
func (s *System) DRead(pa uint32, now uint64) (stall int) {
	s.Stats.DReads++
	s.record(RefDRead, pa)
	if s.fault != nil && s.fault.MemParity(pa) {
		s.parityPA, s.parityHit = pa, true
	}
	if s.cache.access(pa, true) {
		return 0
	}
	s.Stats.DReadMisses++
	dataAt := s.sbiAcquire(now, s.cfg.MissLatency)
	stall = int(dataAt - now)
	s.Stats.ReadStall += uint64(stall)
	return stall
}

// PTERead performs the page-table-entry read of the TB miss routine. It is
// a D-stream read but counted separately so the analysis can report the
// 3.5-cycle average PTE stall of §4.2.
func (s *System) PTERead(pa uint32, now uint64) (stall int) {
	s.Stats.PTEReads++
	s.record(RefPTERead, pa)
	if s.fault != nil && s.fault.MemParity(pa) {
		s.parityPA, s.parityHit = pa, true
	}
	if s.cache.access(pa, true) {
		return 0
	}
	s.Stats.PTEReadMisses++
	dataAt := s.sbiAcquire(now, s.cfg.MissLatency)
	stall = int(dataAt - now)
	s.Stats.ReadStall += uint64(stall)
	return stall
}

// DWrite performs an EBOX D-stream write at pa. The 11/780 write-through
// scheme: the write buffers in the one-longword write buffer and completes
// over the SBI; the EBOX stalls only when the buffer is still busy with
// the previous write (§2.1). The cache is updated only on a write hit (no
// write-allocate).
func (s *System) DWrite(pa uint32, now uint64) (stall int) {
	s.Stats.DWrites++
	s.record(RefDWrite, pa)
	if s.wbFreeAt > now {
		stall = int(s.wbFreeAt - now)
		s.Stats.WriteStall += uint64(stall)
	}
	issued := now + uint64(stall)
	done := s.sbiAcquire(issued, s.cfg.WriteBusy)
	s.wbFreeAt = done
	s.cache.access(pa, false) // update on hit; no allocate on miss
	return stall
}

// IRead performs an IB refill read of one longword at pa. The EBOX does
// not stall; the IB receives the data after the returned latency. miss
// reports whether the reference went to memory.
func (s *System) IRead(pa uint32, now uint64) (latency int, miss bool) {
	s.Stats.IReads++
	s.record(RefIRead, pa)
	if s.cache.access(pa, true) {
		return 0, false
	}
	s.Stats.IReadMisses++
	dataAt := s.sbiAcquire(now, s.cfg.MissLatency)
	return int(dataAt - now), true
}

// NoteIBytes counts bytes actually delivered to the IB (the IB accepts
// only as many bytes as it has room for at arrival time, §4.1).
func (s *System) NoteIBytes(n int) { s.Stats.IBytes += uint64(n) }

// NoteUnaligned counts an unaligned D-stream reference.
func (s *System) NoteUnaligned() { s.Stats.Unaligned++ }

// NoteTBMiss counts one translation-buffer miss. The machine calls it once
// per microtrap (D-stream) or once per I-fetch miss flag (I-stream), so
// repeated probes during service do not double count.
func (s *System) NoteTBMiss(istream bool) {
	if istream {
		s.Stats.ITBMisses++
	} else {
		s.Stats.DTBMisses++
	}
}

// CacheReadMissRate returns D-stream and I-stream read misses per the
// given instruction count (the cache study's headline numbers).
func (st *Stats) CacheReadMissRate(instr uint64) (d, i float64) {
	if instr == 0 {
		return 0, 0
	}
	return float64(st.DReadMisses) / float64(instr),
		float64(st.IReadMisses) / float64(instr)
}

func (st *Stats) String() string {
	return fmt.Sprintf("dR=%d dRm=%d iR=%d iRm=%d dW=%d tbD=%d tbI=%d rdStall=%d wrStall=%d",
		st.DReads, st.DReadMisses, st.IReads, st.IReadMisses, st.DWrites,
		st.DTBMisses, st.ITBMisses, st.ReadStall, st.WriteStall)
}
