package prof

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vax780/internal/analysis"
	"vax780/internal/paper"
	"vax780/internal/ulint"
	"vax780/internal/upc"
	"vax780/internal/urom"
)

func testIndex(t testing.TB) (*urom.ROM, *ulint.FlowIndex) {
	t.Helper()
	rom := urom.Build()
	return rom, ulint.NewFlowIndex(rom)
}

// synthetic histogram: every owned word of the first few flows ticked,
// restricted to buckets the EBOX can physically pulse.
func synthHist(ix *ulint.FlowIndex) *upc.Histogram {
	rom := urom.Build()
	h := &upc.Histogram{}
	for i, f := range ix.Flows() {
		if i >= 8 {
			break
		}
		for _, w := range f.Words {
			mi := rom.Image.At(w)
			if analysis.BucketTickable(mi, false) {
				h.Normal[w] = uint64(100 * (i + 1))
			}
			if analysis.BucketTickable(mi, true) {
				h.Stalled[w] = uint64(10 * (i + 1))
			}
		}
	}
	return h
}

func TestExactAttributesAllCycles(t *testing.T) {
	rom, ix := testIndex(t)
	h := synthHist(ix)
	p := Exact(rom, ix, h, 0)
	if p.TotalCycles != h.TotalCycles() {
		t.Fatalf("total %d, histogram holds %d", p.TotalCycles, h.TotalCycles())
	}
	var flowCycles uint64
	var shares float64
	for _, f := range p.Flows {
		flowCycles += f.Cycles
		shares += f.Share
	}
	if flowCycles+p.Unattributed != p.TotalCycles {
		t.Fatalf("flows %d + unattributed %d != total %d",
			flowCycles, p.Unattributed, p.TotalCycles)
	}
	if p.Unattributed > 0 {
		t.Fatalf("synthetic histogram over owned words left %d unattributed", p.Unattributed)
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Fatalf("shares sum to %v", shares)
	}
	// Hottest-first order.
	for i := 1; i < len(p.Flows); i++ {
		if p.Flows[i].Cycles > p.Flows[i-1].Cycles {
			t.Fatal("flows not sorted hottest first")
		}
	}
}

// TestExactPricesWithCalibration: the wall time is the one calibration
// left — a run of N cycles measured at N × 60 ns prices every flow at
// 60 ns a cycle, whatever its class.
func TestExactPricesWithCalibration(t *testing.T) {
	rom, ix := testIndex(t)
	h := synthHist(ix)
	const nsPerCycle = 60
	p := Exact(rom, ix, h, nsPerCycle*float64(h.TotalCycles()))
	for _, f := range p.Flows {
		if want := nsPerCycle * float64(f.Cycles); math.Abs(f.Ns-want) > 1e-9*want {
			t.Errorf("%s: %v ns for %d cycles, want %v", f.Name, f.Ns, f.Cycles, want)
		}
	}
}

// TestMeanPricedDistributesWall: priced at the run's measured wall
// time — the live Profiler's pricing — every flow gets its cycle share
// of the wall time, and the flows sum to the wall time.
func TestMeanPricedDistributesWall(t *testing.T) {
	rom, ix := testIndex(t)
	h := synthHist(ix)
	const wallNs = 1e9
	p := Exact(rom, ix, h, wallNs)
	if p.WallNs != wallNs {
		t.Fatalf("profile wall %v, priced at %v", p.WallNs, wallNs)
	}
	var sum float64
	for _, f := range p.Flows {
		sum += f.Ns
		if want := f.Share * wallNs; math.Abs(f.Ns-want) > 1e-9*wallNs {
			t.Errorf("%s: %v ns, want share × wall = %v", f.Name, f.Ns, want)
		}
	}
	if math.Abs(sum-wallNs) > 1e-9*wallNs {
		t.Fatalf("flow ns sum to %v, want wall ns %v", sum, wallNs)
	}
	if q := Exact(rom, ix, h, 0); q.WallNs != 0 || q.Flows[0].Ns != 0 {
		t.Fatal("wall 0 must leave the profile unpriced")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	rom, ix := testIndex(t)
	p := Exact(rom, ix, synthHist(ix), 1e6)
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.TotalCycles != p.TotalCycles || len(q.Flows) != len(p.Flows) {
		t.Fatal("round trip lost data")
	}
}

func TestTableRenders(t *testing.T) {
	rom, ix := testIndex(t)
	p := Exact(rom, ix, synthHist(ix), 1e6)
	tbl := p.Table(5)
	if !strings.Contains(tbl, "hot flows") || !strings.Contains(tbl, p.Flows[0].Name) {
		t.Fatalf("table missing content:\n%s", tbl)
	}
}

func TestDiffProfiles(t *testing.T) {
	rom, ix := testIndex(t)
	h1 := synthHist(ix)
	p1 := Exact(rom, ix, h1, 0)
	// Double the hottest flow's counts in the second profile.
	h2 := synthHist(ix)
	hot := p1.Flows[0]
	for fi, f := range ix.Flows() {
		if f.Name != hot.Name {
			continue
		}
		_ = fi
		for _, w := range f.Words {
			h2.Normal[w] *= 2
			h2.Stalled[w] *= 2
		}
	}
	p2 := Exact(rom, ix, h2, 0)
	deltas := DiffProfiles(p1, p2)
	if len(deltas) == 0 || deltas[0].Name != hot.Name || deltas[0].ShareDelta <= 0 {
		t.Fatalf("hottest mover should be %s gaining share; got %+v", hot.Name, deltas[0])
	}
	out := RenderDiff(deltas, 10, 0)
	if !strings.Contains(out, hot.Name) {
		t.Fatalf("render missing mover:\n%s", out)
	}
}

// TestClassTotalsMatchesProfile: the flows' class cycles sum, class by
// class, to the histogram's per-bucket Table 8 classification.
func TestClassTotalsMatchesProfile(t *testing.T) {
	rom, ix := testIndex(t)
	h := synthHist(ix)
	var totals [paper.NumT8Cols]uint64
	for addr := 0; addr < rom.Image.Size() && addr < upc.Buckets; addr++ {
		normal, stalled := h.At(uint16(addr))
		mi := rom.Image.At(uint16(addr))
		if _, col, ok := analysis.BucketCell(mi, false); ok {
			totals[col] += normal
		}
		if _, col, ok := analysis.BucketCell(mi, true); ok {
			totals[col] += stalled
		}
	}
	p := Exact(rom, ix, h, 0)
	var fromFlows [paper.NumT8Cols]uint64
	for _, f := range p.Flows {
		for c, n := range f.ClassCycles {
			fromFlows[c] += n
		}
	}
	if totals != fromFlows {
		t.Fatalf("class totals %v != per-flow sums %v", totals, fromFlows)
	}
}
