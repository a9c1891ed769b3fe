package vax780

// Integration tests of the observability layer's three acceptance
// criteria: the ledger is byte-identical across Parallelism once
// wall-clock fields are stripped, a machine fault's flight-recorder
// snapshot ends on the faulting micro-PC, and the progress feed
// reports the fleet truthfully through to a Final snapshot.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// ledgerFor runs cfg with a ledger attached at the given parallelism
// and returns the raw JSONL bytes (and Run's error, for fault tests).
func ledgerFor(t *testing.T, cfg RunConfig, parallelism int) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Ledger = &buf
	cfg.Parallelism = parallelism
	_, err := Run(cfg)
	if verr := ValidateLedger(buf.Bytes()); verr != nil {
		t.Fatalf("ledger fails schema validation: %v", verr)
	}
	return buf.Bytes(), err
}

// countEvents tallies ledger lines per event type.
func countEvents(data []byte) map[string]int {
	n := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		for _, ev := range []string{
			"run-start", "workload-start", "workload-done", "faults-injected",
			"retry", "machine-fault", "checkpoint", "resumed", "run-done",
			"sweep-start", "sweep-point-done", "sweep-done",
		} {
			if strings.Contains(line, `"msg":"`+ev+`"`) {
				n[ev]++
			}
		}
	}
	return n
}

// TestLedgerDeterministicAcrossParallelism: the acceptance criterion —
// the same configuration's ledger, wall-clock fields stripped, is
// byte-identical at Parallelism 1 and 4, fault plan attached. Workload
// events buffer per workload and persist in workload order on the
// merge path, exactly like the histograms.
func TestLedgerDeterministicAcrossParallelism(t *testing.T) {
	cfg := RunConfig{
		Instructions: 1500,
		Workloads:    []WorkloadID{TimesharingA, TimesharingB, RTEScientific},
		Faults: &FaultConfig{
			Seed:    99,
			UPCDrop: 1e-4, UPCFlip: 1e-4, UPCSaturate: 1e-5,
		},
	}
	seq, err := ledgerFor(t, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ledgerFor(t, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	ss, err := StripLedgerWallClock(seq)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := StripLedgerWallClock(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ss, ps) {
		t.Errorf("stripped ledgers differ between -j 1 and -j 4:\nseq:\n%s\npar:\n%s", ss, ps)
	}

	n := countEvents(seq)
	want := map[string]int{
		"run-start": 1, "run-done": 1,
		"workload-start": 3, "workload-done": 3, "faults-injected": 3,
	}
	for ev, w := range want {
		if n[ev] != w {
			t.Errorf("%s events = %d, want %d", ev, n[ev], w)
		}
	}
	if !strings.Contains(string(seq), `"config":"`) {
		t.Error("run-start lacks the config hash")
	}
	if !strings.Contains(string(seq), `"host":{`) {
		t.Error("run-done lacks the host self-profile")
	}
}

// TestLedgerRepeatableSameConfig: two identical sequential runs strip
// to the same bytes — the ledger is a function of the configuration,
// not the session.
func TestLedgerRepeatableSameConfig(t *testing.T) {
	cfg := RunConfig{
		Instructions: 1200,
		Workloads:    []WorkloadID{TimesharingA, RTECommercial},
	}
	a, err := ledgerFor(t, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ledgerFor(t, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	as, _ := StripLedgerWallClock(a)
	bs, _ := StripLedgerWallClock(b)
	if !bytes.Equal(as, bs) {
		t.Error("stripped ledgers differ between two identical runs")
	}
}

// faultCfg is a configuration that reliably aborts with a machine
// fault after one retry (mirrors TestMachineFaultTyped).
func faultCfg() RunConfig {
	return RunConfig{
		Instructions: 8000,
		Workloads:    []WorkloadID{TimesharingA},
		Faults: &FaultConfig{
			Seed:       3,
			MemParity:  0.01,
			MaxRetries: 1, RetryBackoff: 1,
		},
	}
}

// TestFaultFlightSnapshot: the acceptance criterion — a fault run's
// MachineFault carries the flight-recorder snapshot, annotated, and
// its final entry's micro-PC equals the fault's micro-PC. The same
// snapshot rides the ledger's machine-fault event.
func TestFaultFlightSnapshot(t *testing.T) {
	data, err := ledgerFor(t, faultCfg(), 1)
	if err == nil {
		t.Fatal("1% parity rate completed without a fault")
	}
	var mf *MachineFault
	if !errors.As(err, &mf) {
		t.Fatalf("err = %v, not a *MachineFault", err)
	}

	if len(mf.Flight) == 0 {
		t.Fatal("MachineFault.Flight is empty; faults auto-enable the recorder")
	}
	last := mf.Flight[len(mf.Flight)-1]
	if last.UPC != mf.UPC {
		t.Errorf("flight final uPC = %05o, fault uPC = %05o; snapshot must end on the faulting cycle",
			last.UPC, mf.UPC)
	}
	for i, e := range mf.Flight {
		if e.Class == "" || e.Region == "" {
			t.Fatalf("flight[%d] not annotated: %+v", i, e)
		}
		if i > 0 && e.Cycle <= mf.Flight[i-1].Cycle {
			t.Fatalf("flight cycles not increasing at %d: %d after %d",
				i, e.Cycle, mf.Flight[i-1].Cycle)
		}
	}

	n := countEvents(data)
	if n["machine-fault"] != 1 {
		t.Errorf("machine-fault events = %d, want 1", n["machine-fault"])
	}
	if n["retry"] == 0 {
		t.Error("no retry events before the terminal fault")
	}
	if n["run-done"] != 0 {
		t.Error("aborted run wrote a run-done event")
	}
	// The ledger's snapshot is the same one: its last entry names the
	// fault uPC.
	if !strings.Contains(string(data), fmt.Sprintf(`"upc":%d,"stalled"`, mf.UPC)) {
		t.Error("ledger machine-fault event lacks the faulting uPC in its flight snapshot")
	}
}

// TestFlightDepthControl: FlightDepth<0 disables the recorder even
// under a fault plan (Flight comes back nil); an explicit depth bounds
// the ring, still ending on the faulting cycle.
func TestFlightDepthControl(t *testing.T) {
	cfg := faultCfg()
	cfg.FlightDepth = -1
	_, err := Run(cfg)
	var mf *MachineFault
	if !errors.As(err, &mf) {
		t.Fatalf("err = %v, not a *MachineFault", err)
	}
	if mf.Flight != nil {
		t.Errorf("FlightDepth=-1 still recorded %d entries", len(mf.Flight))
	}

	cfg = faultCfg()
	cfg.FlightDepth = 64
	_, err = Run(cfg)
	if !errors.As(err, &mf) {
		t.Fatalf("err = %v, not a *MachineFault", err)
	}
	if len(mf.Flight) == 0 || len(mf.Flight) > 64 {
		t.Fatalf("FlightDepth=64 recorded %d entries", len(mf.Flight))
	}
	if last := mf.Flight[len(mf.Flight)-1]; last.UPC != mf.UPC {
		t.Errorf("bounded flight final uPC = %05o, fault uPC = %05o", last.UPC, mf.UPC)
	}
}

// TestProgressCallback: RunConfig.Progress receives periodic
// snapshots and exactly one Final snapshot whose totals match the
// run's results.
func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	res, err := Run(RunConfig{
		Instructions:     2000,
		Workloads:        []WorkloadID{TimesharingA, RTEEducational},
		progressInterval: 10 * time.Millisecond,
		Progress: func(p Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	finals := 0
	for _, s := range snaps {
		if s.Final {
			finals++
		}
	}
	if finals != 1 || !snaps[len(snaps)-1].Final {
		t.Fatalf("want exactly one Final snapshot, last: finals=%d last.Final=%v",
			finals, snaps[len(snaps)-1].Final)
	}
	last := snaps[len(snaps)-1]
	if last.DoneUnits != 2 || last.TotalUnits != 2 {
		t.Errorf("final units = %d/%d, want 2/2", last.DoneUnits, last.TotalUnits)
	}
	var instrs, cycles uint64
	for _, w := range res.PerWorkload {
		instrs += w.Instructions
		cycles += w.Cycles
	}
	if last.Instrs != instrs || last.Cycles != cycles {
		t.Errorf("final snapshot totals %d instrs / %d cycles, results say %d / %d",
			last.Instrs, last.Cycles, instrs, cycles)
	}
}

// TestSweepLedgerDeterministic: the sweep's ledger carries sweep-start,
// one sweep-point-done per design point in input order, sweep-done —
// and strips to identical bytes at any Parallelism.
func TestSweepLedgerDeterministic(t *testing.T) {
	points := []SweepPoint{
		{Label: "a", Config: RunConfig{Instructions: 600, Workloads: []WorkloadID{TimesharingA}}},
		{Label: "b", Config: RunConfig{Instructions: 600, Workloads: []WorkloadID{TimesharingB}}},
		{Label: "c", Config: RunConfig{Instructions: 600, Workloads: []WorkloadID{RTEScientific}}},
	}
	sweepLedger := func(parallelism int) []byte {
		var buf bytes.Buffer
		res := Sweep(points, SweepOptions{Parallelism: parallelism, Ledger: &buf})
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Label, r.Err)
			}
		}
		if err := ValidateLedger(buf.Bytes()); err != nil {
			t.Fatalf("sweep ledger fails validation: %v", err)
		}
		return buf.Bytes()
	}

	seq := sweepLedger(1)
	par := sweepLedger(4)
	ss, _ := StripLedgerWallClock(seq)
	ps, _ := StripLedgerWallClock(par)
	if !bytes.Equal(ss, ps) {
		t.Errorf("stripped sweep ledgers differ between -j 1 and -j 4:\nseq:\n%s\npar:\n%s", ss, ps)
	}

	n := countEvents(seq)
	if n["sweep-start"] != 1 || n["sweep-done"] != 1 || n["sweep-point-done"] != 3 {
		t.Errorf("sweep events = %+v, want 1 start, 3 point-done, 1 done", n)
	}
	// Point events land in input order.
	text := string(seq)
	if strings.Index(text, `"point":"a"`) > strings.Index(text, `"point":"b"`) ||
		strings.Index(text, `"point":"b"`) > strings.Index(text, `"point":"c"`) {
		t.Error("sweep-point-done events not in input order")
	}
}

// TestSweepProgress: SweepOptions.Progress sees the whole sweep's
// budget and finishes with a Final snapshot covering every point.
func TestSweepProgress(t *testing.T) {
	points := []SweepPoint{
		{Label: "p0", Config: RunConfig{Instructions: 800, Workloads: []WorkloadID{TimesharingA}}},
		{Label: "p1", Config: RunConfig{Instructions: 800, Workloads: []WorkloadID{TimesharingB}}},
	}
	var mu sync.Mutex
	var last Progress
	got := false
	res := Sweep(points, SweepOptions{
		Parallelism:      2,
		progressInterval: 10 * time.Millisecond,
		Progress: func(p Progress) {
			mu.Lock()
			last, got = p, true
			mu.Unlock()
		},
	})
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !got || !last.Final {
		t.Fatalf("no Final sweep snapshot (got=%v, final=%v)", got, last.Final)
	}
	if last.DoneUnits != 2 || last.TotalUnits != 2 {
		t.Errorf("final sweep units = %d/%d, want 2/2", last.DoneUnits, last.TotalUnits)
	}
}
