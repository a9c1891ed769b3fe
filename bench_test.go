package vax780

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md §3 for the experiment index). Each benchmark measures
// the cost of its reduction over a cached composite run and reports the
// headline measured-vs-paper numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result series. The full formatted tables come
// from cmd/vaxtables and cmd/vaxmon.

import (
	"sync"
	"testing"

	"vax780/internal/paper"
	"vax780/internal/vax"
)

const benchInstrPerExperiment = 40_000

var (
	benchOnce sync.Once
	benchRes  *Results
	benchErr  error
)

func benchComposite(b *testing.B) *Results {
	b.Helper()
	benchOnce.Do(func() {
		benchRes, benchErr = Run(RunConfig{Instructions: benchInstrPerExperiment})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

// BenchmarkFigure1BlockDiagram regenerates the Figure 1 system diagram
// from a fresh machine (component graph rendering, not a cached string).
func BenchmarkFigure1BlockDiagram(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = renderBlockDiagram()
	}
	b.ReportMetric(float64(len(s)), "bytes")
}

// BenchmarkTable1OpcodeGroups regenerates the opcode group frequencies.
func BenchmarkTable1OpcodeGroups(b *testing.B) {
	res := benchComposite(b)
	var simple float64
	for i := 0; i < b.N; i++ {
		for _, g := range res.Analysis().OpcodeGroups() {
			if g.Group == vax.GroupSimple {
				simple = g.Percent
			}
		}
	}
	b.ReportMetric(simple, "simple_pct")
	b.ReportMetric(paper.Table1[vax.GroupSimple].V, "paper_simple_pct")
}

// BenchmarkTable2PCChanging regenerates the PC-changing class table.
func BenchmarkTable2PCChanging(b *testing.B) {
	res := benchComposite(b)
	var pct, taken float64
	for i := 0; i < b.N; i++ {
		_, total := res.Analysis().PCChanging()
		pct, taken = total.PctOfInstrs, total.PctTaken
	}
	b.ReportMetric(pct, "pc_changing_pct")
	b.ReportMetric(taken, "taken_pct")
	b.ReportMetric(paper.Table2Total.PctOfInstrs.V, "paper_pc_changing_pct")
}

// BenchmarkTable3SpecifierCounts regenerates specifier counts.
func BenchmarkTable3SpecifierCounts(b *testing.B) {
	res := benchComposite(b)
	var total float64
	for i := 0; i < b.N; i++ {
		total = res.Analysis().SpecifierCounts().Total
	}
	b.ReportMetric(total, "specs_per_instr")
	b.ReportMetric(paper.Table3SpecsTotal.V, "paper_specs_per_instr")
}

// BenchmarkTable4SpecifierModes regenerates the mode distribution.
func BenchmarkTable4SpecifierModes(b *testing.B) {
	res := benchComposite(b)
	var register, indexed float64
	for i := 0; i < b.N; i++ {
		rows, idx := res.Analysis().SpecifierModes()
		register = rows[paper.T4Register].Total
		indexed = idx.Total
	}
	b.ReportMetric(register, "register_pct")
	b.ReportMetric(indexed, "indexed_pct")
	b.ReportMetric(paper.Table4[paper.T4Register].Total.V, "paper_register_pct")
}

// BenchmarkTable5MemoryOps regenerates the reads/writes table.
func BenchmarkTable5MemoryOps(b *testing.B) {
	res := benchComposite(b)
	var reads, writes float64
	for i := 0; i < b.N; i++ {
		_, total := res.Analysis().MemoryOps()
		reads, writes = total.Reads, total.Writes
	}
	b.ReportMetric(reads, "reads_per_instr")
	b.ReportMetric(writes, "writes_per_instr")
	b.ReportMetric(paper.Table5Total.Reads.V, "paper_reads_per_instr")
}

// BenchmarkTable6InstructionSize regenerates the size estimate.
func BenchmarkTable6InstructionSize(b *testing.B) {
	res := benchComposite(b)
	var bytes float64
	for i := 0; i < b.N; i++ {
		bytes = res.Analysis().InstructionSize().TotalBytes
	}
	b.ReportMetric(bytes, "instr_bytes")
	b.ReportMetric(paper.Table6TotalBytes.V, "paper_instr_bytes")
}

// BenchmarkTable7Headways regenerates the event headways.
func BenchmarkTable7Headways(b *testing.B) {
	res := benchComposite(b)
	var ints float64
	for i := 0; i < b.N; i++ {
		ints = res.Analysis().EventHeadways().Interrupts
	}
	b.ReportMetric(ints, "interrupt_headway")
	b.ReportMetric(paper.Table7Interrupts.V, "paper_interrupt_headway")
}

// BenchmarkTable8CPIMatrix regenerates the central CPI decomposition.
func BenchmarkTable8CPIMatrix(b *testing.B) {
	res := benchComposite(b)
	var cpi, rstall float64
	for i := 0; i < b.N; i++ {
		m := res.Analysis().CPIMatrix()
		cpi = m.Total
		rstall = m.ColTotals[paper.T8RStall]
	}
	b.ReportMetric(cpi, "cpi")
	b.ReportMetric(rstall, "rstall_per_instr")
	b.ReportMetric(paper.Table8Total.V, "paper_cpi")
}

// BenchmarkTable9PerGroupCycles regenerates the per-group cycle costs.
func BenchmarkTable9PerGroupCycles(b *testing.B) {
	res := benchComposite(b)
	var callret, char float64
	for i := 0; i < b.N; i++ {
		rows := res.Analysis().PerGroupCycles()
		callret = rows[vax.GroupCallRet][paper.NumT8Cols]
		char = rows[vax.GroupCharacter][paper.NumT8Cols]
	}
	b.ReportMetric(callret, "callret_cycles")
	b.ReportMetric(char, "character_cycles")
	b.ReportMetric(paper.Table9Total(paper.T8CallRet).V, "paper_callret_cycles")
}

// BenchmarkSec41IStream regenerates the §4.1 IB statistics.
func BenchmarkSec41IStream(b *testing.B) {
	res := benchComposite(b)
	var refs, bytesPerRef float64
	for i := 0; i < b.N; i++ {
		cs, _ := res.Analysis().CacheStudyStats()
		refs, bytesPerRef = cs.IBRefsPerInstr, cs.IBBytesPerRef
	}
	b.ReportMetric(refs, "ib_refs_per_instr")
	b.ReportMetric(bytesPerRef, "ib_bytes_per_ref")
	b.ReportMetric(paper.Sec4IBRefsPerInstr.V, "paper_ib_refs_per_instr")
}

// BenchmarkSec42CacheTB regenerates the §4.2 cache and TB statistics.
func BenchmarkSec42CacheTB(b *testing.B) {
	res := benchComposite(b)
	var miss, tbMiss, tbCycles float64
	for i := 0; i < b.N; i++ {
		cs, _ := res.Analysis().CacheStudyStats()
		tb := res.Analysis().TBMissStats()
		miss = cs.CacheMissPerInstr
		tbMiss = tb.MissesPerInstr
		tbCycles = tb.CyclesPerMiss
	}
	b.ReportMetric(miss, "cache_miss_per_instr")
	b.ReportMetric(tbMiss, "tb_miss_per_instr")
	b.ReportMetric(tbCycles, "tb_cycles_per_miss")
	b.ReportMetric(paper.Sec4TBMissCycles.V, "paper_tb_cycles_per_miss")
}

// BenchmarkAblationTraceVsUPC runs the A1 methodology comparison.
func BenchmarkAblationTraceVsUPC(b *testing.B) {
	var invisible float64
	for i := 0; i < b.N; i++ {
		cmp, err := CompareTraceDriven(TimesharingA, 10_000)
		if err != nil {
			b.Fatal(err)
		}
		invisible = cmp.InvisibleFraction
	}
	b.ReportMetric(100*invisible, "invisible_pct")
}

// BenchmarkAblationTBFlush runs the A2 context-switch interval ablation:
// frequent rescheduling versus the measured 6418-instruction interval.
func BenchmarkAblationTBFlush(b *testing.B) {
	var fast, slow float64
	for i := 0; i < b.N; i++ {
		f, err := Run(RunConfig{
			Instructions: 8_000, Workloads: []WorkloadID{TimesharingA},
			CtxSwitchHeadway: 600,
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := Run(RunConfig{
			Instructions: 8_000, Workloads: []WorkloadID{TimesharingA},
			CtxSwitchHeadway: 50_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		fast = f.TBMiss().MissesPerInstr
		slow = s.TBMiss().MissesPerInstr
	}
	b.ReportMetric(fast, "tbmiss_600")
	b.ReportMetric(slow, "tbmiss_50000")
}

// BenchmarkAblationWriteBuffer runs the A3 write-buffer ablation: the
// one-longword buffer's 6-cycle occupancy versus an idealized fast one.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	var stock, fast float64
	for i := 0; i < b.N; i++ {
		st, err := Run(RunConfig{
			Instructions: 8_000, Workloads: []WorkloadID{TimesharingA},
		})
		if err != nil {
			b.Fatal(err)
		}
		fa, err := Run(RunConfig{
			Instructions: 8_000, Workloads: []WorkloadID{TimesharingA},
			WriteBusy: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		stock = st.CPI()
		fast = fa.CPI()
	}
	b.ReportMetric(stock, "cpi_wb6")
	b.ReportMetric(fast, "cpi_wb1")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// EBOX cycles per wall-clock second for one workload run end to end.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(RunConfig{
			Instructions: 20_000,
			Workloads:    []WorkloadID{TimesharingA},
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.PerWorkload[0].Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles/op")
}

// BenchmarkCompanionCacheStudy regenerates the reference-[2] methodology:
// trace once, sweep cache organizations offline.
func BenchmarkCompanionCacheStudy(b *testing.B) {
	var prod float64
	for i := 0; i < b.N; i++ {
		res, err := CacheStudy(TimesharingA, 10_000, Study780Configs())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Config.Name == "8KB/2way/8B" {
				prod = r.ReadMissRatio
			}
		}
	}
	b.ReportMetric(prod, "prod_read_miss_ratio")
}

// BenchmarkAblationOverlappedDecode measures the §5 what-if the paper
// calls out: the 11/750's overlapped I-Decode cycle.
func BenchmarkAblationOverlappedDecode(b *testing.B) {
	var base, over float64
	for i := 0; i < b.N; i++ {
		rb, err := Run(RunConfig{Instructions: 8_000, Workloads: []WorkloadID{TimesharingA}})
		if err != nil {
			b.Fatal(err)
		}
		ro, err := Run(RunConfig{Instructions: 8_000, Workloads: []WorkloadID{TimesharingA},
			OverlapDecode: true})
		if err != nil {
			b.Fatal(err)
		}
		base = rb.PerWorkload[0].CPI
		over = ro.PerWorkload[0].CPI
	}
	b.ReportMetric(base, "cpi_780")
	b.ReportMetric(over, "cpi_overlapped")
	b.ReportMetric(base-over, "cycles_saved")
}

// BenchmarkCompanionTBStudy regenerates the reference-[3] methodology:
// capture the TB probe trace once, sweep TB organizations offline.
func BenchmarkCompanionTBStudy(b *testing.B) {
	var prod float64
	for i := 0; i < b.N; i++ {
		res, err := TBStudy(TimesharingA, 10_000, StudyTBConfigs())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Config.Name == "128e/2way" {
				prod = r.MissRatio
			}
		}
	}
	b.ReportMetric(prod, "prod_tb_miss_ratio")
}
