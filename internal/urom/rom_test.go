package urom

import (
	"os"
	"testing"

	"vax780/internal/ucode"
	"vax780/internal/vax"
)

func TestBuildSucceeds(t *testing.T) {
	r := Build()
	if r.Image.Size() == 0 {
		t.Fatal("empty image")
	}
	if r.Image.Size() > ucode.ControlStoreSize {
		t.Fatalf("control store overflow: %d", r.Image.Size())
	}
	t.Logf("control store: %d locations", r.Image.Size())
}

func TestEveryOpcodeHasExecEntry(t *testing.T) {
	r := Build()
	for _, op := range vax.Opcodes() {
		if r.ExecEntry[op] == 0 {
			t.Errorf("%s: no execute entry", op)
		}
	}
}

func TestHasExecFlowMatchesOpcodes(t *testing.T) {
	// HasExecFlow disambiguates "flow at address 0" from "no flow": it
	// must be set exactly for the defined opcodes, so I-Decode can turn
	// an undecodable opcode into a machine check instead of a panic.
	r := Build()
	defined := make(map[vax.Opcode]bool)
	for _, op := range vax.Opcodes() {
		defined[op] = true
		if !r.HasExecFlow[op] {
			t.Errorf("%s: HasExecFlow false for a defined opcode", op)
		}
	}
	for op := 0; op < 256; op++ {
		if r.HasExecFlow[op] && !defined[vax.Opcode(op)] {
			t.Errorf("opcode %#x: HasExecFlow set but opcode undefined", op)
		}
	}
}

func TestSpecEntriesComplete(t *testing.T) {
	r := Build()
	for pos := 0; pos < 2; pos++ {
		for m := vax.AddrMode(0); m < vax.NumAddrModes; m++ {
			for v := AccVariant(0); v < NumAccVariants; v++ {
				if r.SpecEntry[pos][m][v] == 0 {
					t.Errorf("no spec entry for pos=%d mode=%v variant=%d", pos, m, v)
				}
			}
		}
	}
}

func TestIRDIsDecodeRegion(t *testing.T) {
	r := Build()
	mi := r.Image.At(r.IRD)
	if mi.Region != ucode.RegDecode {
		t.Errorf("IRD region = %v, want Decode", mi.Region)
	}
	if mi.IB != ucode.IBDecodeInstr {
		t.Errorf("IRD IB func = %v, want IBDecodeInstr", mi.IB)
	}
}

func TestIBStallLocations(t *testing.T) {
	r := Build()
	cases := []struct {
		addr uint16
		reg  ucode.Region
	}{
		{r.IBStallInstr, ucode.RegDecode},
		{r.IBStallSpec1, ucode.RegSpec1},
		{r.IBStallSpecN, ucode.RegSpecN},
		{r.IBStallBDisp, ucode.RegBDisp},
	}
	for _, c := range cases {
		mi := r.Image.At(c.addr)
		if !mi.IBStall {
			t.Errorf("addr %d: not marked IBStall", c.addr)
		}
		if mi.Region != c.reg {
			t.Errorf("addr %d: region %v, want %v", c.addr, mi.Region, c.reg)
		}
	}
}

func TestMicrocodeSharingInEntries(t *testing.T) {
	r := Build()
	// Integer add and subtract must share a flow entry (the paper's
	// canonical example of why per-opcode counts are unrecoverable).
	if r.ExecEntry[vax.ADDL2] != r.ExecEntry[vax.SUBL2] {
		t.Error("ADDL2 and SUBL2 entries differ; they must share microcode")
	}
	if r.ExecEntry[vax.BRB] != r.ExecEntry[vax.BEQL] {
		t.Error("BRB and BEQL must share the conditional branch flow")
	}
	if r.ExecEntry[vax.MOVC3] != r.ExecEntry[vax.MOVC5] {
		t.Error("MOVC3 and MOVC5 must share the move-character flow")
	}
	if r.ExecEntry[vax.CALLS] == r.ExecEntry[vax.RET] {
		t.Error("CALLS and RET must not share")
	}
}

func TestOptimizedEntries(t *testing.T) {
	r := Build()
	// Optimized entries exist for the shared arithmetic flow and point one
	// location past the standard entry.
	if r.ExecEntryOpt[vax.ADDL2] == 0 {
		t.Fatal("ADDL2 has no optimized entry")
	}
	if r.ExecEntryOpt[vax.ADDL2] != r.ExecEntry[vax.ADDL2]+1 {
		t.Errorf("optimized entry = %d, want %d",
			r.ExecEntryOpt[vax.ADDL2], r.ExecEntry[vax.ADDL2]+1)
	}
	// Moves are single-cycle: no optimized entry.
	if r.ExecEntryOpt[vax.MOVL] != 0 {
		t.Error("MOVL should have no optimized entry")
	}
}

func TestFieldMemVariants(t *testing.T) {
	r := Build()
	if r.ExecEntryMem[vax.EXTV] == 0 {
		t.Error("EXTV needs a memory-base variant")
	}
	if r.ExecEntryMem[vax.BBS] == 0 {
		t.Error("BBS needs a memory-base variant")
	}
	if r.ExecEntryMem[vax.MOVL] != 0 {
		t.Error("MOVL must not have a memory-base variant")
	}
}

func TestIndexedFirstSpecifierShares(t *testing.T) {
	r := Build()
	// The index preamble for the first specifier must live in the SPEC1
	// region, while base flows are only reachable in the SPEC2-6 region —
	// the paper's ~0.06 cycle/instruction mis-attribution artifact.
	if r.Image.At(r.IdxEntry[0]).Region != ucode.RegSpec1 {
		t.Error("spec1 index preamble not in Spec1 region")
	}
	if r.Image.At(r.IdxEntry[1]).Region != ucode.RegSpecN {
		t.Error("specN index preamble not in SpecN region")
	}
}

func TestRegionsAllPopulated(t *testing.T) {
	r := Build()
	ext := r.Image.RegionExtents()
	for reg := ucode.RegDecode; reg < ucode.NumRegions; reg++ {
		if ext[reg] == 0 {
			t.Errorf("region %v has no microcode", reg)
		}
	}
}

func TestTBMissRoutineLength(t *testing.T) {
	// The paper: 21.6 cycles per TB miss including 3.5 cycles of PTE read
	// stall. Non-stalled cycles = abort (1) + routine; the routine should
	// be 16-18 cycles so that abort+routine+stall ≈ 21.6.
	r := Build()
	n := 0
	for addr := r.TBMiss; ; addr++ {
		mi := r.Image.At(addr)
		n++
		if mi.Seq == ucode.SeqTrapRet {
			break
		}
		if n > 64 {
			t.Fatal("tbmiss routine does not terminate")
		}
	}
	if n < 14 || n > 20 {
		t.Errorf("TB miss routine is %d cycles; want 14-20 (plus abort and stall ≈ 21.6)", n)
	}
}

func TestVariantForMapping(t *testing.T) {
	cases := map[vax.Access]AccVariant{
		vax.AccRead:    VarRead,
		vax.AccModify:  VarRead,
		vax.AccWrite:   VarAddr,
		vax.AccAddress: VarAddr,
		vax.AccVField:  VarAddr,
	}
	for acc, want := range cases {
		if got := VariantFor(acc); got != want {
			t.Errorf("VariantFor(%v) = %v, want %v", acc, got, want)
		}
	}
}

func TestPatchBodiesInAbortRegion(t *testing.T) {
	r := Build()
	found := 0
	for _, name := range r.Image.SortedLabels() {
		if len(name) > 6 && name[:6] == "patch." {
			found++
			if r.Image.At(r.Image.Addr(name)).Region != ucode.RegAbort {
				t.Errorf("%s not in Abort region", name)
			}
		}
	}
	if found == 0 {
		t.Error("no patch stubs found")
	}
}

func TestListingNonEmpty(t *testing.T) {
	r := Build()
	if len(r.Image.Listing()) < 1000 {
		t.Error("listing suspiciously short")
	}
}

// TestMicroprogramPassesVerifier runs the static control-store checker
// over the full authored microprogram.
func TestMicroprogramPassesVerifier(t *testing.T) {
	r := Build()
	issues := ucode.Verify(r.Image)
	for _, i := range issues {
		t.Errorf("verifier: %s", i)
	}
}

// TestListingMatchesGolden pins the control-store listing byte for byte:
// labels and comments live beside the microwords, and the listing must
// render them exactly as when they were fields of each word. Regenerate
// testdata/listing.golden only for a deliberate microcode change.
func TestListingMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/listing.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := Build().Image.Listing(); got != string(want) {
		t.Fatalf("control-store listing drifted from testdata/listing.golden:\n%s", got)
	}
}
