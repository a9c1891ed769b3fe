package ucode

import (
	"fmt"
	"sort"
	"strings"
)

// Assembler builds a control-store image from symbolic flows. Flows are
// emitted sequentially; labels are resolved at Assemble time so flows may
// reference each other in any order (the microcode-sharing jumps depend on
// this).
type Assembler struct {
	insts    []MicroInst
	names    []string // listing label per location
	comments []string // listing comment per location
	labels   map[string]uint16
	fixups   []fixup
	region   Region
	// pending holds labels bound since the last emit, waiting to be
	// attached to the next emitted instruction. Indexing them here keeps
	// emit O(1); the old implementation scanned the whole label map per
	// instruction, making assembly quadratic in program size.
	pending []string
	errlist []string
}

type fixup struct {
	addr  int
	label string
}

// NewAssembler returns an empty assembler. Address 0 is reserved as an
// invalid location (the real machine's microaddress 0 is the reset entry).
func NewAssembler() *Assembler {
	return &Assembler{
		insts:    []MicroInst{{}},
		names:    []string{"reset"},
		comments: []string{"reserved"},
		labels:   make(map[string]uint16),
	}
}

// Region sets the region tag applied to subsequently emitted locations.
func (a *Assembler) Region(r Region) *Assembler {
	a.region = r
	return a
}

// Label binds name to the next emitted location.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup {
		a.errf("duplicate label %q", name)
		return a
	}
	a.labels[name] = uint16(len(a.insts))
	a.pending = append(a.pending, name)
	return a
}

// emit appends one microinstruction in the current region, attaching the
// first label bound to this address (deterministically — the map scan
// this replaces picked one in map iteration order).
func (a *Assembler) emit(mi MicroInst, comment string) *Assembler {
	mi.Region = a.region
	name := ""
	if len(a.pending) > 0 {
		name = a.pending[0]
	}
	a.pending = a.pending[:0]
	a.insts = append(a.insts, mi)
	a.names = append(a.names, name)
	a.comments = append(a.comments, comment)
	return a
}

// Compute emits n autonomous compute cycles.
func (a *Assembler) Compute(n int, comment string) *Assembler {
	for i := 0; i < n; i++ {
		c := comment
		if n > 1 {
			c = fmt.Sprintf("%s (%d/%d)", comment, i+1, n)
		}
		a.emit(MicroInst{Seq: SeqNext}, c)
	}
	return a
}

// Mem emits one memory-function cycle.
func (a *Assembler) Mem(f MemFunc, comment string) *Assembler {
	return a.emit(MicroInst{Mem: f, Seq: SeqNext}, comment)
}

// LoopLoad emits a compute cycle that loads the loop counter.
func (a *Assembler) LoopLoad(src LoopSrc, n int, comment string) *Assembler {
	if n != int(int32(n)) {
		a.errf("loop count %d does not fit the 32-bit N field", n)
	}
	return a.emit(MicroInst{Seq: SeqNext, Loop: src, N: int32(n)}, comment)
}

// LoopBack emits the loop-closing microinstruction: decrement the counter
// and jump back to label while it remains positive. The microinstruction
// itself may also carry a memory function (the common "read/write inside
// the loop-closing cycle" idiom).
func (a *Assembler) LoopBack(label string, mem MemFunc, comment string) *Assembler {
	a.fixups = append(a.fixups, fixup{addr: len(a.insts), label: label})
	return a.emit(MicroInst{Mem: mem, Seq: SeqLoop}, comment)
}

// Jump emits an unconditional jump to label.
func (a *Assembler) Jump(label string, comment string) *Assembler {
	a.fixups = append(a.fixups, fixup{addr: len(a.insts), label: label})
	return a.emit(MicroInst{Seq: SeqJump}, comment)
}

// DecodeInstr emits the IRD microinstruction: one compute cycle that
// consumes the opcode byte and dispatches on it.
func (a *Assembler) DecodeInstr(comment string) *Assembler {
	return a.emit(MicroInst{IB: IBDecodeInstr, Seq: SeqDispatch}, comment)
}

// DecodeSpec emits a specifier-decode dispatch cycle.
func (a *Assembler) DecodeSpec(comment string) *Assembler {
	return a.emit(MicroInst{IB: IBDecodeSpec, Seq: SeqDispatch}, comment)
}

// DecodeBranch emits a branch-displacement decode dispatch cycle.
func (a *Assembler) DecodeBranch(comment string) *Assembler {
	return a.emit(MicroInst{IB: IBDecodeBranch, Seq: SeqDispatch}, comment)
}

// Redirect emits the cycle that commands I-Fetch to refill from the branch
// target (paper §5: "an additional cycle is consumed in the execute phase
// of the instruction to redirect the IB").
func (a *Assembler) Redirect(comment string) *Assembler {
	return a.emit(MicroInst{IB: IBRedirect, Seq: SeqNext}, comment)
}

// IBStallLoc emits an IB-stall wait location: executed once per cycle in
// which a decode found insufficient bytes in the IB. Sequencing re-issues
// the same decode each cycle, so Seq is SeqDispatch with the stall flag.
func (a *Assembler) IBStallLoc(f IBFunc, comment string) *Assembler {
	return a.emit(MicroInst{IB: f, Seq: SeqDispatch, IBStall: true}, comment)
}

// End emits the end-of-instruction microinstruction (back to IRD).
func (a *Assembler) End(comment string) *Assembler {
	return a.emit(MicroInst{Seq: SeqEndInstr}, comment)
}

// EndMem emits an end-of-instruction cycle that also performs a memory
// function (common: the final result write ends the instruction).
func (a *Assembler) EndMem(f MemFunc, comment string) *Assembler {
	return a.emit(MicroInst{Mem: f, Seq: SeqEndInstr}, comment)
}

// EndStore emits the final execute compute cycle of a flow whose result
// goes to the destination specifier: the sequencer continues to the RSTORE
// microroutine when the destination is in memory and ends the instruction
// otherwise (the register store shares this cycle — the 11/780's
// literal/register optimization).
func (a *Assembler) EndStore(comment string) *Assembler {
	return a.emit(MicroInst{Seq: SeqStore}, comment)
}

// CondTaken emits a compute cycle that jumps to label when the current
// instruction's branch is taken and falls through otherwise.
func (a *Assembler) CondTaken(label string, comment string) *Assembler {
	a.fixups = append(a.fixups, fixup{addr: len(a.insts), label: label})
	return a.emit(MicroInst{Seq: SeqCondTaken}, comment)
}

// SkipBranch emits an end-of-instruction cycle that consumes the untaken
// branch's displacement bytes from the IB without computing the target
// (paper §5: B-DISP has fewer compute cycles than there are branch
// displacements because untaken branches skip the computation).
func (a *Assembler) SkipBranch(comment string) *Assembler {
	return a.emit(MicroInst{IB: IBSkipBranch, Seq: SeqEndInstr}, comment)
}

// DispatchBase emits a cycle that dispatches to the base-mode flow of an
// indexed specifier (the EBOX holds the pending base entry computed at
// decode time).
func (a *Assembler) DispatchBase(comment string) *Assembler {
	return a.emit(MicroInst{Seq: SeqDispatch}, comment)
}

// TrapRet emits the microtrap return cycle (retry the trapped reference).
func (a *Assembler) TrapRet(comment string) *Assembler {
	return a.emit(MicroInst{Seq: SeqTrapRet}, comment)
}

// URet emits a micro-subroutine return cycle (used by the shared B-DISP
// flow to return to its caller's redirect cycle).
func (a *Assembler) URet(comment string) *Assembler {
	return a.emit(MicroInst{Seq: SeqURet}, comment)
}

// EndRedirect emits a cycle that redirects I-Fetch to the branch target and
// ends the instruction.
func (a *Assembler) EndRedirect(comment string) *Assembler {
	return a.emit(MicroInst{IB: IBRedirect, Seq: SeqEndInstr}, comment)
}

// CondBranchDisp emits the fused conditional-branch cycle of a
// displacement branch: when the branch is taken it requests the branch
// displacement decode (dispatching to the B-DISP flow, which returns to
// takenLabel); when untaken it consumes the displacement bytes and ends
// the instruction in this same cycle.
func (a *Assembler) CondBranchDisp(takenLabel string, comment string) *Assembler {
	a.fixups = append(a.fixups, fixup{addr: len(a.insts), label: takenLabel})
	return a.emit(MicroInst{Seq: SeqCondTaken, IB: IBDecodeBranch}, comment)
}

func (a *Assembler) errf(format string, args ...interface{}) {
	a.errlist = append(a.errlist, fmt.Sprintf(format, args...))
}

// Image is an assembled control store: the microwords the EBOX executes
// and, beside them, the listing text of each location.
type Image struct {
	Insts  []MicroInst
	Labels map[string]uint16

	// Label[a] and Comment[a] are location a's listing label ("" if
	// none) and comment.
	Label   []string
	Comment []string
}

// Assemble resolves all fixups and returns the finished image.
func (a *Assembler) Assemble() (*Image, error) {
	for _, f := range a.fixups {
		addr, ok := a.labels[f.label]
		if !ok {
			a.errf("undefined label %q", f.label)
			continue
		}
		a.insts[f.addr].Target = addr
	}
	// Bind labels onto their instructions for listings. A label past the
	// last instruction names nothing and can only produce out-of-range
	// targets, so it is an assembly error.
	for name, addr := range a.labels {
		if int(addr) >= len(a.insts) {
			a.errf("label %q bound past the end of the program", name)
			continue
		}
		if a.names[addr] == "" {
			a.names[addr] = name
		}
	}
	if len(a.insts) > ControlStoreSize {
		a.errf("control store overflow: %d locations > %d", len(a.insts), ControlStoreSize)
	}
	if len(a.errlist) > 0 {
		return nil, fmt.Errorf("ucode: assembly errors:\n  %s", strings.Join(a.errlist, "\n  "))
	}
	return &Image{
		Insts:   append([]MicroInst(nil), a.insts...),
		Labels:  copyLabels(a.labels),
		Label:   append([]string(nil), a.names...),
		Comment: append([]string(nil), a.comments...),
	}, nil
}

func copyLabels(m map[string]uint16) map[string]uint16 {
	out := make(map[string]uint16, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// MustAssemble is Assemble for program-construction paths where an error
// is a build bug.
func (a *Assembler) MustAssemble() *Image {
	img, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return img
}

// Addr returns the address bound to label, panicking if undefined: image
// consumers use it to build dispatch tables at init time.
func (img *Image) Addr(label string) uint16 {
	addr, ok := img.Labels[label]
	if !ok {
		panic("ucode: undefined label " + label)
	}
	return addr
}

// At returns the microinstruction at addr.
func (img *Image) At(addr uint16) *MicroInst {
	return &img.Insts[addr]
}

// Size returns the number of occupied control-store locations.
func (img *Image) Size() int { return len(img.Insts) }

// Listing renders a human-readable control-store listing, one line per
// location, grouped by region: address, region, label, memory, I-stream
// and sequencer functions, jump target and comment.
func (img *Image) Listing() string {
	var b strings.Builder
	for addr, mi := range img.Insts {
		fmt.Fprintf(&b, "%05o  %-10s %-22s %-7s %-6s %-5s", addr, mi.Region,
			img.Label[addr], mi.Mem, mi.IB, mi.Seq)
		if mi.Seq == SeqJump || mi.Seq == SeqLoop {
			fmt.Fprintf(&b, " ->%04o", mi.Target)
		}
		if c := img.Comment[addr]; c != "" {
			b.WriteString("  ; " + c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RegionExtents returns, for each region, the number of control-store
// locations it occupies. Useful for the vaxdiag listing and layout tests.
func (img *Image) RegionExtents() map[Region]int {
	out := make(map[Region]int)
	for _, mi := range img.Insts {
		out[mi.Region]++
	}
	return out
}

// SortedLabels returns all labels in address order.
func (img *Image) SortedLabels() []string {
	names := make([]string, 0, len(img.Labels))
	for n := range img.Labels {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return img.Labels[names[i]] < img.Labels[names[j]]
	})
	return names
}
