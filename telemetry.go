package vax780

import (
	"io"
	"net/http"
	"sync"

	"vax780/internal/machine"
	"vax780/internal/telemetry"
)

// Telemetry configures and owns the live telemetry layer of a run: the
// paper's passive-observation discipline applied to the reproduction
// itself. Attach one via RunConfig.Telemetry to watch a run live
// (Handler), export a Chrome trace of its microcode activity
// (WriteTrace), or record a per-interval CPI-decomposition time series
// (WriteIntervalsCSV / WriteIntervalsJSON).
//
// Set the option fields before first use; the underlying layer is built
// lazily on the first method call (or by Run). The zero value enables
// live counters only.
type Telemetry struct {
	// IntervalCycles enables the interval recorder: every N simulated
	// cycles the UPC histogram and hardware counters are snapshotted
	// into the time series (0 disables the recorder).
	IntervalCycles uint64

	// TraceMaxEvents enables the Chrome trace-event collector, capped at
	// this many retained events (0 disables tracing; negative means
	// unlimited — a long run can collect millions of events).
	TraceMaxEvents int

	once  sync.Once
	inner *telemetry.Telemetry
}

// NewTelemetry returns a telemetry layer with the given interval period
// and trace cap (either may be zero to disable that component).
func NewTelemetry(intervalCycles uint64, traceMaxEvents int) *Telemetry {
	return &Telemetry{IntervalCycles: intervalCycles, TraceMaxEvents: traceMaxEvents}
}

func (t *Telemetry) ensure() *telemetry.Telemetry {
	t.once.Do(func() {
		t.inner = telemetry.New(telemetry.Options{
			ROM:            machine.ROM(),
			IntervalCycles: t.IntervalCycles,
			TraceMaxEvents: t.TraceMaxEvents,
		})
	})
	return t.inner
}

// Handler returns the live-monitor HTTP handler: Prometheus-text
// /metrics, expvar at /debug/vars, net/http/pprof at /debug/pprof/,
// the histogram board's Unibus register mirror at /board/{start,
// stop,clear,csr,read}, the SSE interval stream at /events, fleet
// progress at /progress, and the host-time profiler's latest profile
// at /prof. It is safe to serve while a run executes.
func (t *Telemetry) Handler() http.Handler { return t.ensure().Handler() }

// TelemetryCounters is a plain snapshot of the live counters.
type TelemetryCounters struct {
	Cycles      uint64
	StallCycles uint64
	Instrs      uint64
	CPI         float64
	CacheMissD  uint64
	CacheMissI  uint64
	TBMissD     uint64
	TBMissI     uint64
	IBRefills   uint64
	Interrupts  uint64
	CtxSwitches uint64
	Intervals   uint64
}

// Counters snapshots the live counters; safe to call from any goroutine
// while a run executes.
func (t *Telemetry) Counters() TelemetryCounters {
	c := &t.ensure().C
	return TelemetryCounters{
		Cycles:      c.Cycles.Load(),
		StallCycles: c.StallCycles.Load(),
		Instrs:      c.Instrs.Load(),
		CPI:         c.CPI(),
		CacheMissD:  c.CacheMissD.Load(),
		CacheMissI:  c.CacheMissI.Load(),
		TBMissD:     c.TBMissD.Load(),
		TBMissI:     c.TBMissI.Load(),
		IBRefills:   c.IBRefills.Load(),
		Interrupts:  c.Interrupts.Load(),
		CtxSwitches: c.CtxSwitches.Load(),
		Intervals:   c.Intervals.Load(),
	}
}

// IntervalRows returns the recorded per-interval CPI-decomposition time
// series (nil when the recorder was disabled). Call after Run returns.
func (t *Telemetry) IntervalRows() []telemetry.IntervalRow {
	return t.ensure().Rows()
}

// IntervalCycleTotal sums every interval's histogram cycles; on an
// unperturbed run this equals the composite histogram's total cycles.
func (t *Telemetry) IntervalCycleTotal() uint64 {
	t.ensure().Finish()
	if rec := t.inner.Recorder(); rec != nil {
		return rec.TotalCycles()
	}
	return 0
}

// WriteIntervalsCSV writes the interval time series as CSV.
func (t *Telemetry) WriteIntervalsCSV(w io.Writer) error {
	return t.ensure().WriteIntervalsCSV(w)
}

// WriteIntervalsJSON writes the interval time series as JSON.
func (t *Telemetry) WriteIntervalsJSON(w io.Writer) error {
	return t.ensure().WriteIntervalsJSON(w)
}

// WriteTrace writes the collected Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto.
func (t *Telemetry) WriteTrace(w io.Writer) error {
	return t.ensure().WriteTrace(w)
}

// DescribeTelemetryProbes renders the probe-point map of the telemetry
// layer (where each event is tapped and what consumes it).
func DescribeTelemetryProbes() string { return telemetry.DescribeProbes() }
