package ucode

import (
	"strings"
	"testing"
	"unsafe"
)

func TestMemFuncClasses(t *testing.T) {
	reads := []MemFunc{MemReadOperand, MemReadPointer, MemReadStack, MemReadString, MemReadPTE, MemReadScalar}
	writes := []MemFunc{MemWriteOperand, MemWriteStack, MemWriteString, MemWriteScalar}
	for _, m := range reads {
		if !m.IsRead() || m.IsWrite() {
			t.Errorf("%v: IsRead=%v IsWrite=%v, want read", m, m.IsRead(), m.IsWrite())
		}
	}
	for _, m := range writes {
		if m.IsRead() || !m.IsWrite() {
			t.Errorf("%v: IsRead=%v IsWrite=%v, want write", m, m.IsRead(), m.IsWrite())
		}
	}
	if MemNone.IsRead() || MemNone.IsWrite() {
		t.Error("MemNone should be neither read nor write")
	}
}

func TestAssembleSimpleFlow(t *testing.T) {
	a := NewAssembler()
	a.Region(RegDecode)
	a.Label("ird").DecodeInstr("decode")
	a.Region(RegExecSimple)
	a.Label("exec.move").EndStore("move")
	a.Label("loopy").LoopLoad(LoopImm, 3, "load")
	a.Label("loopy.body").Compute(2, "work")
	a.LoopBack("loopy.body", MemNone, "again")
	a.End("done")
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if img.Size() < 7 {
		t.Fatalf("image too small: %d", img.Size())
	}
	ird := img.Addr("ird")
	if ird == 0 {
		t.Error("ird assembled at reserved address 0")
	}
	mi := img.At(ird)
	if mi.IB != IBDecodeInstr || mi.Seq != SeqDispatch {
		t.Errorf("ird microinstruction wrong: %+v", mi)
	}
	body := img.Addr("loopy.body")
	// The LoopBack instruction is 2 after the body start (Compute ×2).
	lb := img.At(body + 2)
	if lb.Seq != SeqLoop || lb.Target != body {
		t.Errorf("loopback: %+v, want SeqLoop to %d", lb, body)
	}
	if img.At(img.Addr("exec.move")).Region != RegExecSimple {
		t.Error("region tag lost")
	}
}

func TestAssembleDuplicateLabel(t *testing.T) {
	a := NewAssembler()
	a.Label("x").Compute(1, "")
	a.Label("x").Compute(1, "")
	if _, err := a.Assemble(); err == nil {
		t.Error("duplicate label should fail assembly")
	}
}

func TestAssembleUndefinedTarget(t *testing.T) {
	a := NewAssembler()
	a.Jump("nowhere", "")
	if _, err := a.Assemble(); err == nil {
		t.Error("undefined target should fail assembly")
	}
}

func TestAddrPanicsOnUnknownLabel(t *testing.T) {
	img := NewAssembler().MustAssemble()
	defer func() {
		if recover() == nil {
			t.Error("Addr of unknown label should panic")
		}
	}()
	img.Addr("ghost")
}

func TestListingAndExtents(t *testing.T) {
	a := NewAssembler()
	a.Region(RegSpec1)
	a.Label("spec1.reg").DecodeSpec("register specifier")
	a.Region(RegMemMgmt)
	a.Label("tbmiss").Compute(3, "probe").Mem(MemReadPTE, "read PTE").TrapRet("retry")
	img := a.MustAssemble()
	l := img.Listing()
	if !strings.Contains(l, "spec1.reg") || !strings.Contains(l, "tbmiss") {
		t.Errorf("listing missing labels:\n%s", l)
	}
	ext := img.RegionExtents()
	if ext[RegMemMgmt] != 5 {
		t.Errorf("RegMemMgmt extent = %d, want 5", ext[RegMemMgmt])
	}
	if ext[RegSpec1] != 1 {
		t.Errorf("RegSpec1 extent = %d, want 1", ext[RegSpec1])
	}
}

func TestClassString(t *testing.T) {
	cases := []struct {
		mi   MicroInst
		want string
	}{
		{MicroInst{}, "compute"},
		{MicroInst{Mem: MemReadOperand}, "read"},
		{MicroInst{Mem: MemWriteStack}, "write"},
		{MicroInst{IBStall: true}, "ibstall"},
	}
	for _, c := range cases {
		if got := c.mi.ClassString(); got != c.want {
			t.Errorf("ClassString(%+v) = %q, want %q", c.mi, got, c.want)
		}
	}
}

func TestSortedLabels(t *testing.T) {
	a := NewAssembler()
	a.Label("zz").Compute(1, "")
	a.Label("aa").Compute(1, "")
	img := a.MustAssemble()
	labels := img.SortedLabels()
	// Address order, not name order: zz was emitted first.
	if len(labels) != 2 || labels[0] != "zz" || labels[1] != "aa" {
		t.Errorf("SortedLabels = %v", labels)
	}
}

func TestControlStoreOverflow(t *testing.T) {
	a := NewAssembler()
	a.Compute(ControlStoreSize+1, "filler")
	if _, err := a.Assemble(); err == nil {
		t.Error("overflowing the control store should fail assembly")
	}
}

func TestCondBranchDispEncoding(t *testing.T) {
	a := NewAssembler()
	a.Label("br").CondBranchDisp("take", "test & maybe decode")
	a.Label("take").EndRedirect("go")
	img := a.MustAssemble()
	mi := img.At(img.Addr("br"))
	if mi.Seq != SeqCondTaken || mi.IB != IBDecodeBranch || mi.Target != img.Addr("take") {
		t.Errorf("CondBranchDisp encoded wrong: %+v", mi)
	}
	take := img.At(img.Addr("take"))
	if take.IB != IBRedirect || take.Seq != SeqEndInstr {
		t.Errorf("EndRedirect encoded wrong: %+v", take)
	}
}

// TestMicroInstIs12Bytes guards the size of the control-store word the
// EBOX reads every cycle: listing text lives on Image, not in the word.
func TestMicroInstIs12Bytes(t *testing.T) {
	if n := unsafe.Sizeof(MicroInst{}); n != 12 {
		t.Errorf("MicroInst is %d bytes, want 12", n)
	}
}

// TestLoopCountMustFitN: an immediate loop count the 32-bit N field
// cannot hold is an assembly error, not a silently wrapped count.
func TestLoopCountMustFitN(t *testing.T) {
	a := NewAssembler()
	a.Region(RegExecSimple)
	a.Label("x").LoopLoad(LoopImm, 1<<40, "too many").End("done")
	if _, err := a.Assemble(); err == nil || !strings.Contains(err.Error(), "32-bit N field") {
		t.Errorf("Assemble = %v, want a loop-count error", err)
	}
}
