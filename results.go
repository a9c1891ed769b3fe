package vax780

import (
	"vax780/internal/analysis"
	"vax780/internal/machine"
	"vax780/internal/paper"
	"vax780/internal/report"
	"vax780/internal/upc"
	"vax780/internal/urom"
	"vax780/internal/vax"
)

// machineROM returns the shared microprogram.
func machineROM() *urom.ROM { return machine.ROM() }

// WorkloadResult summarizes one experiment's run.
type WorkloadResult struct {
	Workload     WorkloadID
	Instructions uint64
	Cycles       uint64
	CPI          float64
}

// Results holds a composite measurement: the summed histogram, the
// hardware counters, and accessors for every table of the paper.
type Results struct {
	cfg         RunConfig
	analysis    *analysis.Analysis
	hist        *upc.Histogram
	perHist     []*upc.Histogram
	describe    string
	PerWorkload []WorkloadResult

	// Retries counts workload attempts the supervisor repeated after
	// transient machine checks (0 on a healthy run).
	Retries int

	// Resumed counts workloads folded in from a checkpoint rather than
	// re-executed (0 when the run started from scratch).
	Resumed int

	// FaultInjections summarizes what the attached fault plan injected,
	// per class (empty when no plan was attached or nothing fired).
	FaultInjections string
}

// Instructions returns the composite instruction count (the execution
// count of the IRD microinstruction).
func (r *Results) Instructions() uint64 { return r.analysis.Instructions() }

// CPI returns cycles per average instruction (the paper's headline 10.6).
func (r *Results) CPI() float64 { return r.analysis.CPIMatrix().Total }

// Report renders every table with the paper's values alongside.
func (r *Results) Report() string { return report.New(r.analysis).All() }

// BlockDiagram returns the Figure 1 system structure. A run describes
// the machine its workloads ran on, so a custom cache or TB geometry
// shows. Results loaded or merged from dumps carry the stock diagram,
// the string the package-level BlockDiagram renders once per process.
func (r *Results) BlockDiagram() string { return r.describe }

// GroupPercent is a public Table 1 row.
type GroupPercent struct {
	Group   string
	Percent float64
	Paper   float64
}

// OpcodeGroups returns the measured Table 1 with the published values.
func (r *Results) OpcodeGroups() []GroupPercent {
	var out []GroupPercent
	for _, g := range r.analysis.OpcodeGroups() {
		out = append(out, GroupPercent{
			Group:   g.Group.String(),
			Percent: g.Percent,
			Paper:   paper.Table1[g.Group].V,
		})
	}
	return out
}

// CPIBreakdown is a public Table 8 row summary.
type CPIBreakdown struct {
	Activity string
	Cycles   float64 // per average instruction
	Paper    float64
}

// CPIRows returns the Table 8 row totals.
func (r *Results) CPIRows() []CPIBreakdown {
	m := r.analysis.CPIMatrix()
	var out []CPIBreakdown
	for row := paper.Table8Row(0); row < paper.NumT8Rows; row++ {
		out = append(out, CPIBreakdown{
			Activity: row.String(),
			Cycles:   m.RowTotals[row],
			Paper:    paper.Table8RowTotals[row].V,
		})
	}
	return out
}

// CycleClasses returns the Table 8 column totals (the six cycle classes).
func (r *Results) CycleClasses() []CPIBreakdown {
	m := r.analysis.CPIMatrix()
	var out []CPIBreakdown
	for c := paper.Table8Col(0); c < paper.NumT8Cols; c++ {
		out = append(out, CPIBreakdown{
			Activity: c.String(),
			Cycles:   m.ColTotals[c],
			Paper:    paper.Table8ColTotals[c].V,
		})
	}
	return out
}

// TBStats is the public §4.2 translation buffer summary.
type TBStats struct {
	MissesPerInstr float64
	CyclesPerMiss  float64
	StallPerMiss   float64
	PaperMisses    float64
	PaperCycles    float64
}

// TBMiss returns the translation buffer statistics.
func (r *Results) TBMiss() TBStats {
	tb := r.analysis.TBMissStats()
	return TBStats{
		MissesPerInstr: tb.MissesPerInstr,
		CyclesPerMiss:  tb.CyclesPerMiss,
		StallPerMiss:   tb.StallPerMiss,
		PaperMisses:    paper.Sec4TBMissPerInstr.V,
		PaperCycles:    paper.Sec4TBMissCycles.V,
	}
}

// CacheStats is the public §4.1-4.2 cache-study summary.
type CacheStats struct {
	MissPerInstr   float64
	MissD, MissI   float64
	IBRefsPerInstr float64
	IBBytesPerRef  float64
}

// CacheStudy returns the hardware-counter statistics.
func (r *Results) CacheStudy() CacheStats {
	cs, _ := r.analysis.CacheStudyStats()
	return CacheStats{
		MissPerInstr:   cs.CacheMissPerInstr,
		MissD:          cs.CacheMissD,
		MissI:          cs.CacheMissI,
		IBRefsPerInstr: cs.IBRefsPerInstr,
		IBBytesPerRef:  cs.IBBytesPerRef,
	}
}

// PCChangingPercent returns the Table 2 totals: percent of instructions
// that may change the PC, and the percent of those that do.
func (r *Results) PCChangingPercent() (pctOfInstrs, pctTaken float64) {
	_, total := r.analysis.PCChanging()
	return total.PctOfInstrs, total.PctTaken
}

// AverageInstructionBytes returns the Table 6 estimate.
func (r *Results) AverageInstructionBytes() float64 {
	return r.analysis.InstructionSize().TotalBytes
}

// Headways returns the Table 7 event headways.
func (r *Results) Headways() (softIntReq, interrupts, ctxSwitches float64) {
	h := r.analysis.EventHeadways()
	return h.SoftIntRequests, h.Interrupts, h.ContextSwitches
}

// PerGroupCycles returns the Table 9 execute-phase totals by group name.
func (r *Results) PerGroupCycles() map[string]float64 {
	out := make(map[string]float64)
	for g, cells := range r.analysis.PerGroupCycles() {
		out[g.String()] = cells[paper.NumT8Cols]
	}
	return out
}

// WorkloadComparison renders the five experiments side by side: the
// per-workload view behind the paper's composite (each experiment was
// measured separately and the histograms summed, §2.2).
func (r *Results) WorkloadComparison() string {
	if len(r.perHist) == 0 {
		return ""
	}
	names := make([]string, len(r.perHist))
	analyses := make([]*analysis.Analysis, len(r.perHist))
	for i, h := range r.perHist {
		names[i] = r.PerWorkload[i].Workload.String()
		analyses[i] = analysis.New(machineROM(), h)
	}
	return report.WorkloadComparison(names, analyses)
}

// Analysis exposes the underlying reduction for advanced use (the cmd
// tools and benchmarks use it for the full per-cell tables).
func (r *Results) Analysis() *analysis.Analysis { return r.analysis }

// Histogram exposes the raw composite histogram.
func (r *Results) Histogram() *upc.Histogram { return r.hist }

// GroupNames lists the Table 1 group names in paper order.
func GroupNames() []string {
	out := make([]string, vax.NumGroups)
	for g := vax.Group(0); g < vax.NumGroups; g++ {
		out[g] = g.String()
	}
	return out
}
