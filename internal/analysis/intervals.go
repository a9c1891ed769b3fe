package analysis

import (
	"math"

	"vax780/internal/paper"
	"vax780/internal/upc"
	"vax780/internal/urom"
	"vax780/internal/vax"
)

// IntervalSeries summarizes the variation of the statistics during the
// measurement — the data the paper's §2.2 notes its averages-only
// reduction cannot provide.
type IntervalSeries struct {
	Points []IntervalCPI

	MeanCPI   float64
	StdDevCPI float64
	MinCPI    float64
	MaxCPI    float64
}

// Intervals reduces a sequence of per-interval histogram deltas (from
// machine.RunIntervals) into the variation series: the per-interval
// decompositions of DecomposeIntervals and their CPI spread.
func Intervals(rom *urom.ROM, hists []*upc.Histogram) IntervalSeries {
	s := IntervalSeries{Points: DecomposeIntervals(rom, hists)}
	var sum, sumSq float64
	for _, p := range s.Points {
		sum += p.CPI
		sumSq += p.CPI * p.CPI
		if s.MinCPI == 0 || p.CPI < s.MinCPI {
			s.MinCPI = p.CPI
		}
		if p.CPI > s.MaxCPI {
			s.MaxCPI = p.CPI
		}
	}
	n := float64(len(s.Points))
	if n > 0 {
		s.MeanCPI = sum / n
		variance := sumSq/n - s.MeanCPI*s.MeanCPI
		if variance > 0 {
			s.StdDevCPI = math.Sqrt(variance)
		}
	}
	return s
}

// IntervalCPI is one interval's full CPI decomposition: the Table 8
// column totals (cycles per instruction by cycle class) computed over a
// single measurement interval instead of the whole run. This is the
// per-interval view of the paper's central result — the live telemetry
// layer's time series is built from these.
type IntervalCPI struct {
	Instructions uint64 // IRD executions in the interval
	Cycles       uint64
	CPI          float64
	PerClass     [paper.NumT8Cols]float64 // cycles/instr by cycle class
	SimplePct    float64                  // SIMPLE-group share (phase indicator)
}

// Per-class accessors, in Table 8 column order.
func (d *IntervalCPI) Compute() float64    { return d.PerClass[paper.T8Compute] }
func (d *IntervalCPI) Read() float64       { return d.PerClass[paper.T8Read] }
func (d *IntervalCPI) ReadStall() float64  { return d.PerClass[paper.T8RStall] }
func (d *IntervalCPI) Write() float64      { return d.PerClass[paper.T8Write] }
func (d *IntervalCPI) WriteStall() float64 { return d.PerClass[paper.T8WStall] }
func (d *IntervalCPI) IBStall() float64    { return d.PerClass[paper.T8IBStall] }

// DecomposeIntervals reduces a sequence of per-interval histogram
// deltas into per-interval CPI decompositions. The sum of the interval
// Cycles equals the total cycles of the summed histograms.
func DecomposeIntervals(rom *urom.ROM, hists []*upc.Histogram) []IntervalCPI {
	out := make([]IntervalCPI, len(hists))
	for i, h := range hists {
		a := New(rom, h)
		m := a.CPIMatrix()
		d := IntervalCPI{
			Instructions: a.Instructions(),
			Cycles:       h.TotalCycles(),
			PerClass:     m.ColTotals,
		}
		if d.Instructions > 0 {
			d.CPI = float64(d.Cycles) / float64(d.Instructions)
		}
		for _, g := range a.OpcodeGroups() {
			if g.Group == vax.GroupSimple {
				d.SimplePct = g.Percent
			}
		}
		out[i] = d
	}
	return out
}
