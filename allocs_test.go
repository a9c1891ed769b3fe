package vax780

import (
	"bytes"
	"testing"

	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/workload"
)

// TestFixedCostAllocs guards the fixed costs that ride on every Run and
// every reload of a stored dump, so they cannot creep back: the Figure 1
// text is rendered once per process, a dump streams into its histogram,
// the cache and TB are flat arrays, and a machine shares the one control
// store.
func TestFixedCostAllocs(t *testing.T) {
	BlockDiagram()
	if n := testing.AllocsPerRun(20, func() { BlockDiagram() }); n != 0 {
		t.Errorf("BlockDiagram after the first call: %.0f allocs, want 0", n)
	}

	res, err := Run(RunConfig{Instructions: 2000, Workloads: []WorkloadID{TimesharingA}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := res.SaveHistogram(&dump); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		loaded, err := LoadHistogram(bytes.NewReader(dump.Bytes()))
		if err != nil || loaded.CPI() != res.CPI() {
			t.Fatalf("reload: %v, CPI %v want %v", err, loaded.CPI(), res.CPI())
		}
	}); n > 16 {
		t.Errorf("LoadHistogram + CPI: %.0f allocs, want ≤ 16", n)
	}

	// A stock machine: the control store and every table derived from it
	// are built once per process, never per machine.
	prog := workload.NewProgram()
	if n := testing.AllocsPerRun(20, func() {
		machine.New(machine.Config{Mem: mem.Config{}}, prog)
	}); n > 15 {
		t.Errorf("machine.New on a stock config: %.0f allocs, want ≤ 15", n)
	}

	cfg := RunConfig{Instructions: 10, Workloads: []WorkloadID{TimesharingA}, Parallelism: 1}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}); n >= 100 {
		t.Errorf("10-instruction single-workload Run: %.0f allocs, want < 100", n)
	}
}
