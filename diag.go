package vax780

import (
	"fmt"
	"strings"
	"sync"

	"vax780/internal/machine"
	"vax780/internal/mem"
	"vax780/internal/ucode"
	"vax780/internal/ulint"
	"vax780/internal/workload"
)

// BlockDiagram returns the Figure 1 block diagram of the stock
// VAX-11/780 configuration without running a workload. The text depends
// only on the stock configuration, so it is rendered once per process
// and every caller shares the same string.
func BlockDiagram() string { return blockDiagram() }

var blockDiagram = sync.OnceValue(renderBlockDiagram)

// renderBlockDiagram builds a stock machine and describes it.
func renderBlockDiagram() string {
	m := machine.New(machine.Config{Mem: mem.Config{}}, workload.NewProgram())
	return m.Describe()
}

// ControlStoreListing renders the full microprogram listing, one line per
// control-store location.
func ControlStoreListing() string {
	return machine.ROM().Image.Listing()
}

// VerifyMicrocode runs the static control-store checker over the
// microprogram and returns its findings as strings (empty = clean).
func VerifyMicrocode() []string {
	var out []string
	for _, i := range ucode.Verify(machine.ROM().Image) {
		out = append(out, i.String())
	}
	return out
}

// LintControlStore runs the whole-program static analyzer (the
// dispatch-rooted CFG passes of internal/ulint) over the shipped
// microprogram and dispatch tables.
func LintControlStore() *ulint.Report {
	return ulint.AnalyzeROM(machine.ROM())
}

// ControlStoreSummary renders region extents: how many microwords each
// Table 8 activity region occupies.
func ControlStoreSummary() string {
	img := machine.ROM().Image
	ext := img.RegionExtents()
	var b strings.Builder
	fmt.Fprintf(&b, "Control store: %d/%d microwords used\n", img.Size(), ucode.ControlStoreSize)
	total := 0
	for r := ucode.RegDecode; r < ucode.NumRegions; r++ {
		fmt.Fprintf(&b, "  %-12s %5d microwords\n", r, ext[r])
		total += ext[r]
	}
	fmt.Fprintf(&b, "  %-12s %5d microwords\n", "(reserved)", img.Size()-total)
	return b.String()
}
