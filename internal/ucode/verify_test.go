package ucode

import (
	"strings"
	"testing"
)

func TestVerifyCleanImage(t *testing.T) {
	a := NewAssembler()
	a.Region(RegDecode)
	a.Label("ird").DecodeInstr("d")
	a.Label("stall").IBStallLoc(ucodeStallFunc, "s")
	a.Region(RegExecSimple)
	a.Label("flow").Compute(2, "work").End("done")
	a.Label("loop.head").LoopLoad(LoopImm, 3, "init")
	a.Label("loop.body").Compute(1, "body")
	a.LoopBack("loop.body", MemNone, "again")
	a.End("done")
	img := a.MustAssemble()
	if issues := Verify(img); len(issues) != 0 {
		t.Errorf("clean image has issues: %v", issues)
	}
}

const ucodeStallFunc = IBDecodeInstr

// kinds collects the issue kinds found by Verify.
func kinds(issues []Issue) map[IssueKind]int {
	out := make(map[IssueKind]int)
	for _, i := range issues {
		out[i.Kind]++
	}
	return out
}

func TestVerifyCatchesForwardLoop(t *testing.T) {
	a := NewAssembler()
	a.Region(RegExecSimple)
	a.Label("bad").LoopBack("fwd", MemNone, "forward loop")
	a.Label("fwd").End("target")
	img := a.MustAssemble()
	issues := Verify(img)
	if kinds(issues)[IssueLoopForward] != 1 {
		t.Errorf("forward loop not reported: %v", issues)
	}
	fwd := FilterKind(issues, IssueLoopForward)
	if len(fwd) != 1 || fwd[0].Severity != SevError {
		t.Errorf("forward loop should be a single error finding: %v", fwd)
	}
	if !strings.Contains(fwd[0].Msg, "cannot terminate") {
		t.Errorf("message changed: %q", fwd[0].Msg)
	}
}

func TestVerifyCatchesFallThroughEnd(t *testing.T) {
	a := NewAssembler()
	a.Region(RegExecSimple)
	a.Label("x").Compute(1, "falls off the end")
	img := a.MustAssemble()
	issues := Verify(img)
	if kinds(issues)[IssueFallThroughEnd] != 1 {
		t.Errorf("fall-through past end not reported: %v", issues)
	}
}

func TestVerifyCatchesUnreachable(t *testing.T) {
	a := NewAssembler()
	a.Region(RegExecSimple)
	a.Label("a").End("done")
	a.Compute(1, "orphan") // no label, nothing falls into it
	a.End("orphan end")
	img := a.MustAssemble()
	issues := FilterKind(Verify(img), IssueUnreachable)
	if len(issues) != 2 {
		t.Errorf("found %d unreachable locations, want 2: %v", len(issues), issues)
	}
	for _, i := range issues {
		if i.Severity != SevWarning {
			t.Errorf("unreachable should be a warning: %v", i)
		}
	}
}

func TestVerifyCatchesStallWithMemory(t *testing.T) {
	a := NewAssembler()
	a.Region(RegDecode)
	a.Label("s").emit(MicroInst{IB: IBDecodeInstr, Seq: SeqDispatch, IBStall: true, Mem: MemReadOperand}, "")
	img := a.MustAssemble()
	if kinds(Verify(img))[IssueStallMem] != 1 {
		t.Errorf("stall-with-memory not reported: %v", Verify(img))
	}
}

func TestVerifyCatchesRegionlessCode(t *testing.T) {
	a := NewAssembler()
	a.Label("noregion").End("no region set")
	img := a.MustAssemble()
	if kinds(Verify(img))[IssueNoRegion] != 1 {
		t.Errorf("regionless location not reported: %v", Verify(img))
	}
}

func TestVerifyKindsCoverMessages(t *testing.T) {
	// Every kind renders a distinct name for report grouping.
	seen := make(map[string]IssueKind)
	for k := IssueKind(0); k < NumIssueKinds; k++ {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %v and %v share the name %q", prev, k, s)
		}
		seen[s] = k
	}
}

// TestIssueString pins the historical rendering: tooling that parsed the
// free-form "%05o: msg" lines must keep working across the typed-kind
// refactor.
func TestIssueString(t *testing.T) {
	i := Issue{Kind: IssueUnreachable, Addr: 8, Msg: "boom"}
	if i.String() != "00010: boom" {
		t.Errorf("Issue.String = %q", i.String())
	}
}

func TestLabelPastEndRejected(t *testing.T) {
	a := NewAssembler()
	a.Region(RegExecSimple)
	a.Label("x").End("done")
	a.Label("dangling")
	if _, err := a.Assemble(); err == nil {
		t.Error("label past the end of the program not rejected")
	}
}
