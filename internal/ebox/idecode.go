package ebox

import (
	"fmt"

	"vax780/internal/faults"
	"vax780/internal/ibox"
	"vax780/internal/ucode"
	"vax780/internal/urom"
	"vax780/internal/vax"
)

// seq resolves the sequencer function of the just-executed
// microinstruction, performing any I-stream request it carries. It
// returns the next micro-PC, or done=true when the instruction completed.
func (e *EBOX) seq(mi *ucode.MicroInst) (next uint16, done bool, err error) {
	// I-stream side effects that do not determine sequencing.
	if mi.IB == ucode.IBRedirect {
		e.IB.Redirect(e.ctx.Target)
		e.redirected = true
	}

	switch mi.Seq {
	case ucode.SeqNext:
		return e.upc + 1, false, nil

	case ucode.SeqJump:
		return mi.Target, false, nil

	case ucode.SeqLoop:
		e.loop--
		if e.loop > 0 {
			return mi.Target, false, nil
		}
		return e.upc + 1, false, nil

	case ucode.SeqEndInstr:
		return 0, true, nil

	case ucode.SeqStore:
		if d := e.ctx.DstSpec; d >= 0 {
			e.curSpec = d
			if d == 0 {
				return e.ROM.RStore[0], false, nil
			}
			return e.ROM.RStore[1], false, nil
		}
		return 0, true, nil

	case ucode.SeqCondTaken:
		if e.ctx.In == nil {
			return 0, false, fmt.Errorf("conditional outside instruction at uPC %#o", e.upc)
		}
		if e.ctx.In.Taken {
			// Taken: decode the branch displacement and run the B-DISP
			// micro-subroutine, returning to the take path.
			next, err := e.decodeBranch()
			if err != nil {
				return 0, false, err
			}
			e.uret = mi.Target
			return next, false, nil
		}
		// Untaken: consume the displacement bytes in this same cycle and
		// end the instruction.
		if err := e.skipBranch(); err != nil {
			return 0, false, err
		}
		return 0, true, nil

	case ucode.SeqURet:
		return e.uret, false, nil

	case ucode.SeqDispatch:
		switch mi.IB {
		case ucode.IBDecodeInstr:
			next, err := e.dispatchInstr()
			return next, false, err
		case ucode.IBDecodeSpec:
			next, err := e.dispatchNext()
			return next, false, err
		case ucode.IBDecodeBranch:
			// Stand-alone branch decode (always-taken flows).
			next, err := e.decodeBranch()
			if err != nil {
				return 0, false, err
			}
			e.uret = e.upc + 1
			return next, false, nil
		case ucode.IBNone:
			// Indexed-specifier base dispatch.
			return e.pendBase, false, nil
		}
		return 0, false, fmt.Errorf("dispatch without IB function at uPC %#o", e.upc)
	}
	return 0, false, fmt.Errorf("unhandled seq %v at uPC %#o", mi.Seq, e.upc)
}

// waitIB stalls at the given IB-stall wait location until the IB holds at
// least need bytes, servicing any pending I-stream TB miss. Each waited
// cycle is an execution of the stall microinstruction — the paper's IB
// stall metric.
func (e *EBOX) waitIB(stallLoc uint16, need int) error {
	if need > len(e.IB.Bytes()) {
		for waited := 0; len(e.IB.Bytes()) < need; waited++ {
			if waited > 10_000 {
				return fmt.Errorf("IB starvation waiting for %d bytes at VA %#x", need, e.IB.BufVA())
			}
			if miss, _ := e.IB.ITBMiss(); miss {
				if err := e.serviceITBMiss(); err != nil {
					return err
				}
				continue
			}
			e.tick(stallLoc, false, false)
		}
	}
	return nil
}

// dispatchInstr performs the IRD dispatch: consume the opcode byte and
// choose the first specifier flow or the execute flow.
func (e *EBOX) dispatchInstr() (uint16, error) {
	if err := e.waitIB(e.ROM.IBStallInstr, 1); err != nil {
		return 0, err
	}
	op, err := vax.DecodeOpcode(e.IB.Bytes())
	if err != nil {
		return 0, fmt.Errorf("opcode decode at VA %#x: %w", e.IB.BufVA(), err)
	}
	if e.Strict && op != e.ctx.In.Op {
		return 0, fmt.Errorf("decode mismatch: IB has %s, trace has %s at PC %#x",
			op, e.ctx.In.Op, e.ctx.In.PC)
	}
	if err := e.IB.Consume(1); err != nil {
		return 0, e.machineCheck(faults.CodeIBOverrun, "ebox.dispatchInstr",
			e.IB.BufVA(), err)
	}
	if len(op.Info().Specs) == 0 {
		return e.execEntry(op)
	}
	return e.dispatchSpec()
}

// dispatchNext handles the end-of-specifier-flow dispatch: the next
// specifier, or the execute flow once all specifiers are processed.
func (e *EBOX) dispatchNext() (uint16, error) {
	if e.ctx.In == nil {
		return 0, fmt.Errorf("specifier dispatch outside instruction")
	}
	if e.specIdx < len(e.ctx.In.Specs) {
		return e.dispatchSpec()
	}
	return e.execEntry(e.ctx.In.Op)
}

// dispatchSpec decodes specifier number specIdx from the IB and returns
// its flow entry.
func (e *EBOX) dispatchSpec() (uint16, error) {
	in := e.ctx.In
	info := in.Info()
	stallLoc := e.ROM.IBStallSpecN
	if e.specIdx == 0 {
		stallLoc = e.ROM.IBStallSpec1
	}

	typ := info.Specs[e.specIdx].Type
	var (
		mode    vax.AddrMode
		indexed bool
		n       int
	)
	for {
		var err error
		mode, indexed, n, err = vax.DecodeShape(e.IB.Bytes(), typ)
		if err == nil {
			break
		}
		if err != vax.ErrShort {
			return 0, fmt.Errorf("specifier decode: %w", err)
		}
		if len(e.IB.Bytes()) >= ibox.Capacity {
			return 0, fmt.Errorf("specifier larger than IB at PC %#x", in.PC)
		}
		if err := e.waitIB(stallLoc, len(e.IB.Bytes())+1); err != nil {
			return 0, err
		}
	}

	if e.Strict {
		ds, err := vax.DecodeSpec(e.IB.Bytes(), typ)
		if err != nil {
			return 0, fmt.Errorf("specifier decode: %w", err)
		}
		want := in.Specs[e.specIdx]
		if ds.Mode != want.Mode || ds.Index != want.Index {
			return 0, fmt.Errorf("specifier %d decode mismatch at PC %#x: decoded %v[idx %d], trace %v[idx %d]",
				e.specIdx, in.PC, ds.Mode, ds.Index, want.Mode, want.Index)
		}
	}

	if err := e.IB.Consume(n); err != nil {
		return 0, e.machineCheck(faults.CodeIBOverrun, "ebox.dispatchSpec",
			e.IB.BufVA(), err)
	}
	e.curSpec = e.specIdx
	pos := 1
	if e.specIdx == 0 {
		pos = 0
	}
	e.specIdx++

	variant := urom.VariantFor(info.Specs[e.curSpec].Access)
	if indexed {
		// Indexed: one preamble cycle in this position's region, then the
		// shared SPEC2-6 base flow (the paper's attribution artifact).
		e.pendBase = e.ROM.SpecEntry[1][mode][variant]
		return e.ROM.IdxEntry[pos], nil
	}
	return e.ROM.SpecEntry[pos][mode][variant], nil
}

// execEntry selects the execute flow entry for op, applying the
// field-base memory variant and the literal/register operand
// optimization. An opcode the control store holds no execute flow for
// is a machine-check abort (address 0 is a valid control-store
// location, so presence is tracked explicitly in HasExecFlow).
func (e *EBOX) execEntry(op vax.Opcode) (uint16, error) {
	if !e.ROM.HasExecFlow[op] {
		return 0, e.machineCheck(faults.CodeMissingFlow, "ebox.execEntry",
			e.ctx.In.PC, fmt.Errorf("no execute flow for %s", op))
	}
	in := e.ctx.In

	if in.SIRR && op == vax.MTPR {
		return e.ROM.ExecEntrySIRR, nil
	}
	if e.ROM.ExecEntryMem[op] != 0 && e.ctx.FieldSpec >= 0 &&
		in.Specs[e.ctx.FieldSpec].Mode.IsMemory() {
		return e.ROM.ExecEntryMem[op], nil
	}
	if e.ROM.ExecEntryOpt[op] != 0 && len(in.Specs) > 0 {
		last := in.Specs[len(in.Specs)-1].Mode
		if last == vax.ModeRegister || last == vax.ModeLiteral {
			return e.ROM.ExecEntryOpt[op], nil
		}
	}
	return e.ROM.ExecEntry[op], nil
}

// decodeBranch consumes the branch displacement from the IB and returns
// the B-DISP flow entry.
func (e *EBOX) decodeBranch() (uint16, error) {
	size := e.ctx.In.Info().BranchDispSize
	if size == 0 {
		return 0, fmt.Errorf("%s has no branch displacement", e.ctx.In.Op)
	}
	if err := e.waitIB(e.ROM.IBStallBDisp, size); err != nil {
		return 0, err
	}
	if e.Strict {
		d, err := vax.DecodeBranchDisp(e.IB.Bytes(), size)
		if err != nil {
			return 0, err
		}
		if d != e.ctx.In.BranchDisp {
			return 0, fmt.Errorf("branch displacement mismatch at PC %#x: IB %d, trace %d",
				e.ctx.In.PC, d, e.ctx.In.BranchDisp)
		}
	}
	if err := e.IB.Consume(size); err != nil {
		return 0, e.machineCheck(faults.CodeIBOverrun, "ebox.decodeBranch",
			e.IB.BufVA(), err)
	}
	return e.ROM.BDisp, nil
}

// skipBranch consumes the displacement bytes of an untaken branch within
// the current cycle (no target computation, §5).
func (e *EBOX) skipBranch() error {
	size := e.ctx.In.Info().BranchDispSize
	if size == 0 {
		return nil
	}
	if err := e.waitIB(e.ROM.IBStallBDisp, size); err != nil {
		return err
	}
	if err := e.IB.Consume(size); err != nil {
		return e.machineCheck(faults.CodeIBOverrun, "ebox.skipBranch",
			e.IB.BufVA(), err)
	}
	return nil
}
