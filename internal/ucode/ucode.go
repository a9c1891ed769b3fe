// Package ucode defines the behavioural micro-ISA of the simulated
// VAX-11/780 EBOX and a small symbolic microassembler that builds the
// control store image executed by the ebox package.
//
// The real 11/780 microword is 99 bits of horizontal control; this model
// keeps only the fields that determine what the Emer & Clark UPC histogram
// monitor can observe: what kind of cycle a microinstruction is (compute,
// read, write), whether it requests an I-stream decode, and how the
// microsequencer advances. Microinstruction addresses — the thing the
// histogram is keyed by — are fully faithful: every microinstruction has a
// distinct control-store location, flows share code exactly where the
// paper says the real microcode shared it, and the control store fits in
// the monitor's 16 K buckets.
package ucode

import "fmt"

// ControlStoreSize is the number of addressable control store locations,
// matching the UPC monitor's 16,000-bucket board rounded to the 11/780's
// addressing (the paper's monitor had 16K addressable count locations).
const ControlStoreSize = 16384

// MemFunc selects the memory function of a microinstruction, and — for
// operand references — where the effective address comes from. On the real
// machine this is the memory-request field plus address-mux selects; here
// the ebox resolves each selector against the current instruction context.
type MemFunc uint8

// Memory functions.
const (
	MemNone         MemFunc = iota
	MemReadOperand          // D-stream read at the current specifier's address
	MemReadPointer          // indirection fetch for a deferred specifier
	MemReadStack            // pop: read at SP, then SP += 4
	MemReadString           // next source longword of a string operand
	MemReadPTE              // page-table entry read (TB miss service)
	MemReadScalar           // other D-stream read from instruction context
	MemWriteOperand         // D-stream write at the current specifier's address
	MemWriteStack           // push: SP -= 4, write at SP
	MemWriteString          // next destination longword of a string operand
	MemWriteScalar          // other D-stream write from instruction context
)

// IsRead reports whether the function is a D-stream read.
func (m MemFunc) IsRead() bool {
	return m >= MemReadOperand && m <= MemReadScalar
}

// IsWrite reports whether the function is a D-stream write.
func (m MemFunc) IsWrite() bool {
	return m >= MemWriteOperand && m <= MemWriteScalar
}

var memNames = [...]string{
	"-", "rd.op", "rd.ptr", "rd.stk", "rd.str", "rd.pte", "rd.sc",
	"wr.op", "wr.stk", "wr.str", "wr.sc",
}

func (m MemFunc) String() string {
	if int(m) < len(memNames) {
		return memNames[m]
	}
	return fmt.Sprintf("MemFunc(%d)", m)
}

// IBFunc selects the I-stream request of a microinstruction. Decode
// requests hand sequencing to the I-Decode stage: the next micro-PC is a
// dispatch address computed from the IB contents (or the IB-stall address
// when the IB holds insufficient bytes).
type IBFunc uint8

// I-stream functions.
const (
	IBNone         IBFunc = iota
	IBDecodeInstr         // consume opcode byte; dispatch to first specifier or execute flow
	IBDecodeSpec          // consume one specifier; dispatch to its mode flow
	IBDecodeBranch        // consume the branch displacement; dispatch to the B-DISP flow
	IBRedirect            // command I-Fetch to refill from the branch target
	IBSkipBranch          // consume an untaken branch's displacement bytes in-cycle
)

var ibNames = [...]string{"-", "ird", "spec", "bdisp", "redir", "skip"}

func (f IBFunc) String() string {
	if int(f) < len(ibNames) {
		return ibNames[f]
	}
	return fmt.Sprintf("IBFunc(%d)", f)
}

// SeqFunc selects how the microsequencer finds the next micro-PC.
type SeqFunc uint8

// Sequencer functions.
const (
	SeqNext     SeqFunc = iota // fall through to the next location
	SeqJump                    // unconditional jump to Target
	SeqLoop                    // decrement loop counter; jump to Target while > 0
	SeqDispatch                // next uPC from the I-Decode stage (requires an IB decode func)
	SeqEndInstr                // instruction complete; return to IRD
	SeqStore                   // result store dispatch: to the RSTORE flow if the
	// destination specifier is in memory, otherwise end the instruction
	// (register results use the combined specifier/execute cycle)
	SeqCondTaken // jump to Target if the instruction's branch is taken
	SeqTrapRet   // return from microtrap: retry the trapped memory cycle
	SeqURet      // return from micro-subroutine (B-DISP flow)
)

var seqNames = [...]string{"next", "jump", "loop", "disp", "end", "store", "cond", "rfi", "uret"}

func (s SeqFunc) String() string {
	if int(s) < len(seqNames) {
		return seqNames[s]
	}
	return fmt.Sprintf("SeqFunc(%d)", s)
}

// LoopSrc selects what loads the EBOX loop counter. The counts are
// data-dependent values carried by the instruction context (string length,
// register-mask population count, decimal digit count).
type LoopSrc uint8

// Loop counter sources.
const (
	LoopNone     LoopSrc = iota
	LoopImm              // immediate count from the N field
	LoopRegCount         // registers to move (CALL/RET/PUSHR/POPR)
	LoopStrLW            // ceil(string length / 4): longwords in a string
	LoopStrBytes         // string length in bytes
	LoopDigits           // decimal digit pairs
	LoopFieldLen         // bit-field length in longwords
)

// Region tags a control-store address with the activity row of Table 8 it
// belongs to. The paper's analysis relies on knowing the control-store
// layout; this is that knowledge, recorded by the microassembler.
type Region uint8

// Control-store regions (Table 8 rows).
const (
	RegNone Region = iota
	RegDecode
	RegSpec1 // first-specifier flows
	RegSpecN // specifier 2..6 flows
	RegBDisp // branch displacement processing
	RegExecSimple
	RegExecField
	RegExecFloat
	RegExecCallRet
	RegExecSystem
	RegExecCharacter
	RegExecDecimal
	RegIntExcept // interrupt and exception microcode
	RegMemMgmt   // memory management (TB miss service, alignment)
	RegAbort     // abort cycles: one per microtrap, one per patch
	NumRegions
)

var regionNames = [...]string{
	"-", "Decode", "Spec1", "Spec2-6", "B-Disp",
	"Simple", "Field", "Float", "Call/Ret", "System", "Character", "Decimal",
	"Int/Except", "Mem Mgmt", "Abort",
}

func (r Region) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("Region(%d)", r)
}

// MicroInst is one control-store location: the fields the EBOX executes,
// 12 bytes a word. The listing text (label and comment) lives beside the
// words, in Image.Label and Image.Comment.
type MicroInst struct {
	Mem     MemFunc
	IB      IBFunc
	Seq     SeqFunc
	Loop    LoopSrc // loop counter load performed by this microinstruction
	Target  uint16  // resolved jump/loop target
	Region  Region
	IBStall bool  // this is an IB-stall wait location (paper §4.3)
	N       int32 // immediate count for LoopImm
}

// ClassString renders the cycle class the analysis will assign to
// non-stalled executions of this location.
func (mi *MicroInst) ClassString() string {
	switch {
	case mi.IBStall:
		return "ibstall"
	case mi.Mem.IsRead():
		return "read"
	case mi.Mem.IsWrite():
		return "write"
	}
	return "compute"
}
