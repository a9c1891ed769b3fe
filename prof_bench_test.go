package vax780

// Profiler-overhead benchmarks. The profiler has no per-cycle hook: it
// reads each workload's exact histogram at the merge, so a run with no
// profiler attached must cost within 1% of the fault-era baseline
// (BenchmarkFaults/off), and an attached one costs only the
// attribution walk per merged workload. CI gates both cells A/B across
// base and head with vaxbench -compare, and BENCH_prof.json records
// the original adjudication. The exact variant prices the attribution
// walk alone over a composite histogram.

import "testing"

func benchProfRun(b *testing.B, attach bool) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := RunConfig{
			Instructions: 10_000,
			Workloads:    []WorkloadID{TimesharingA},
		}
		if attach {
			cfg.Profiler = &Profiler{}
		}
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.PerWorkload[0].Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles/op")
}

func BenchmarkProf(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		// No profiler: the disabled path the <1% gate prices — a nil
		// test per workload merge, none per cycle.
		benchProfRun(b, false)
	})
	b.Run("on", func(b *testing.B) {
		// Profiler attached: the exact histogram attributed and priced
		// at each workload merge, nothing added per cycle.
		benchProfRun(b, true)
	})
	b.Run("exact", func(b *testing.B) {
		// The attribution walk alone: attribute an already-measured
		// composite histogram onto flows (no simulation in the loop).
		res, err := Run(RunConfig{
			Instructions: 10_000,
			Workloads:    []WorkloadID{TimesharingA},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p := res.Profile(); len(p.Flows) == 0 {
				b.Fatal("empty profile")
			}
		}
	})
}
