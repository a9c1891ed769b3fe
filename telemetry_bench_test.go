package vax780

// Telemetry-overhead benchmarks. The paper's board was passive in
// hardware; the reproduction's probes must be near-passive in software.
// BenchmarkTelemetry/off runs the exact RunConfig the seed ran — its
// only added cost is the nil probe check on the hot paths — and is the
// <5%-regression gate recorded in BENCH_telemetry.json. The other
// variants price each telemetry component: capped is a trace whose cap
// truncates early in the run (the tracer must stop costing anything
// once it has), and all attaches every observer a run can carry, the
// way the layered benchmark's observed workload does, so a per-cycle
// cost that returns to any hook shows here.

import (
	"bytes"
	"testing"

	"vax780/internal/obs"
	"vax780/internal/runlog"
)

func benchRun(b *testing.B, attach func(*RunConfig)) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := RunConfig{
			Instructions: 10_000,
			Workloads:    []WorkloadID{TimesharingA},
		}
		if attach != nil {
			attach(&cfg)
		}
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.PerWorkload[0].Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles/op")
}

// withTelemetry attaches a telemetry layer with the given interval
// period and trace cap.
func withTelemetry(intervalCycles uint64, traceMaxEvents int) func(*RunConfig) {
	return func(cfg *RunConfig) {
		cfg.Telemetry = NewTelemetry(intervalCycles, traceMaxEvents)
	}
}

// attachEveryObserver attaches fresh observers of every kind: telemetry
// with intervals and a capped trace, a flight recorder, a ledger, an
// event bus, a span trace and a profiler.
func attachEveryObserver(cfg *RunConfig) {
	cfg.Telemetry = NewTelemetry(100_000, 20_000)
	cfg.FlightDepth = 1024
	cfg.Ledger = &bytes.Buffer{}
	cfg.Events = runlog.NewBus()
	cfg.Trace = obs.NewRecorder("bench")
	cfg.Profiler = &Profiler{}
}

func BenchmarkTelemetry(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchRun(b, nil)
	})
	b.Run("counters", func(b *testing.B) {
		benchRun(b, withTelemetry(0, 0))
	})
	b.Run("intervals", func(b *testing.B) {
		benchRun(b, withTelemetry(10_000, 0))
	})
	b.Run("full", func(b *testing.B) {
		benchRun(b, withTelemetry(10_000, 1_000_000))
	})
	b.Run("capped", func(b *testing.B) {
		benchRun(b, withTelemetry(10_000, 2_000))
	})
	b.Run("all", func(b *testing.B) {
		benchRun(b, attachEveryObserver)
	})
}
