package ucode

import (
	"fmt"
	"testing"
)

// FuzzAssemble drives the assembler with an arbitrary byte-coded program
// and checks the label/fixup resolution invariants: Assemble never
// panics; on success every jump/loop/cond target is inside the image and
// every label resolves to the address it was bound at; on failure the
// error is structured (non-empty, mentions every failing construct
// class). The byte stream is an opcode tape: each byte selects one
// assembler operation, with label names drawn from a small pool so
// duplicate labels, forward references, and dangling fixups all occur.
func FuzzAssemble(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 4, 0, 4, 0, 4})       // duplicate labels
	f.Add([]byte{2, 2, 2})                // dangling forward jumps
	f.Add([]byte{4, 3, 1, 4, 3, 1, 5})    // loops over bound labels
	f.Add([]byte{6, 0, 7, 1, 8, 2, 5, 5}) // dispatch and stall mix

	f.Fuzz(func(t *testing.T, tape []byte) {
		a := NewAssembler()
		a.Region(RegExecSimple)
		name := func(i int) string { return fmt.Sprintf("L%d", int(tape[i])%8) }
		for i := 0; i < len(tape); i++ {
			switch tape[i] % 9 {
			case 0:
				a.Compute(1, "c")
			case 1:
				a.Mem(MemReadOperand, "m")
			case 2:
				a.Jump(name(i), "j")
			case 3:
				a.LoopBack(name(i), MemNone, "lb")
			case 4:
				a.Label(name(i))
			case 5:
				a.End("e")
			case 6:
				a.CondTaken(name(i), "ct")
			case 7:
				a.DecodeSpec("ds")
			case 8:
				a.LoopLoad(LoopImm, int(tape[i]/9), "ll")
			}
		}
		img, err := a.Assemble()
		if err != nil {
			if err.Error() == "" {
				t.Fatal("assembly error with empty message")
			}
			return
		}
		n := img.Size()
		for addr := 0; addr < n; addr++ {
			mi := img.At(uint16(addr))
			switch mi.Seq {
			case SeqJump, SeqLoop, SeqCondTaken:
				if int(mi.Target) >= n {
					t.Fatalf("resolved target %05o at %05o outside image of %d words",
						mi.Target, addr, n)
				}
			}
		}
		for lname, addr := range img.Labels {
			if int(addr) >= n {
				t.Fatalf("label %q bound past the image: %05o >= %d", lname, addr, n)
			}
			if got := img.Addr(lname); got != addr {
				t.Fatalf("label %q: Addr says %05o, map says %05o", lname, got, addr)
			}
		}
		// Labels survive onto instructions for the listing: a label's
		// instruction either carries that name or another label bound to
		// the same address.
		byAddr := make(map[uint16]bool)
		for _, addr := range img.Labels {
			byAddr[addr] = true
		}
		for addr := range byAddr {
			if img.Label[addr] == "" {
				t.Fatalf("labelled address %05o has no label attached", addr)
			}
		}
	})
}
