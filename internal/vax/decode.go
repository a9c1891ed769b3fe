package vax

import "errors"

// ErrShort is returned by the incremental decoders when the supplied bytes
// do not contain a complete opcode/specifier/displacement. The I-Decode
// stage turns this condition into an IB-stall dispatch.
var ErrShort = errors.New("vax: insufficient bytes to decode")

// ErrBadOpcode is returned when the first byte is not a modelled opcode.
var ErrBadOpcode = errors.New("vax: unknown opcode")

// errIllegalIndexBase marks an index prefix whose base mode is a reserved
// addressing mode fault on the real machine (literal, register or
// immediate bases cannot be indexed).
var errIllegalIndexBase = errors.New("vax: illegal indexed base mode")

// errDoubleIndex marks an index prefix whose base is another index
// prefix.
var errDoubleIndex = errors.New("vax: double index prefix")

// errWideImmediate marks an immediate operand wider than a longword,
// which is outside the modelled subset (it would not fit the IB).
var errWideImmediate = errors.New("vax: immediate wider than a longword unsupported")

// DecodedSpec is the result of decoding one operand specifier from the
// I-stream.
type DecodedSpec struct {
	Mode  AddrMode
	Reg   int
	Index int   // -1 when not indexed
	Disp  int32 // displacement, short literal value, or immediate value
	Len   int   // total I-stream bytes consumed, including index prefix
}

// DecodeOpcode decodes the opcode at buf[0]. It returns ErrShort for an
// empty buffer and ErrBadOpcode for bytes outside the modelled subset.
func DecodeOpcode(buf []byte) (Opcode, error) {
	if len(buf) < 1 {
		return 0, ErrShort
	}
	op := Opcode(buf[0])
	if !op.Valid() {
		return op, ErrBadOpcode
	}
	return op, nil
}

// shapeKind says how a specifier byte's entry in shapes is completed.
type shapeKind uint8

const (
	shapeFixed     shapeKind = iota // mode and extension length are the byte's
	shapeIndex                      // 0x4X: index prefix; the next byte is the base
	shapeImmediate                  // 0x8F: (PC)+, extension sized by the data type
)

// specShape is what one specifier byte fixes about its specifier: the
// addressing mode, the I-stream bytes that follow it, and whether it may
// be the base of an indexed specifier.
type specShape struct {
	mode      AddrMode
	ext       uint8
	kind      shapeKind
	indexable bool
}

// shapes is the I-Decode table: one entry per specifier byte.
var shapes = func() (t [256]specShape) {
	for i := range t {
		b := byte(i)
		sh := specShape{indexable: true}
		switch reg := b & 0xF; b >> 4 {
		case 0x0, 0x1, 0x2, 0x3:
			sh.mode, sh.indexable = ModeLiteral, false
		case 0x4:
			sh.kind, sh.indexable = shapeIndex, false
		case 0x5:
			sh.mode, sh.indexable = ModeRegister, false
		case 0x6:
			sh.mode = ModeRegDeferred
		case 0x7:
			sh.mode = ModeAutoDecrement
		case 0x8:
			sh.mode = ModeAutoIncrement
			if reg == pcReg {
				sh.mode, sh.kind, sh.indexable = ModeImmediate, shapeImmediate, false
			}
		case 0x9:
			sh.mode = ModeAutoIncDeferred
			if reg == pcReg {
				sh.mode, sh.ext = ModeAbsolute, 4
			}
		case 0xA:
			sh.mode, sh.ext = ModeByteDisp, 1
		case 0xB:
			sh.mode, sh.ext = ModeByteDispDeferred, 1
		case 0xC:
			sh.mode, sh.ext = ModeWordDisp, 2
		case 0xD:
			sh.mode, sh.ext = ModeWordDispDeferred, 2
		case 0xE:
			sh.mode, sh.ext = ModeLongDisp, 4
		case 0xF:
			sh.mode, sh.ext = ModeLongDispDeferred, 4
		}
		t[i] = sh
	}
	return t
}()

// DecodeShape decodes the shape of one operand specifier of data type t
// at the front of buf: its addressing mode, whether it carries an index
// prefix, and its total I-stream length n, index prefix included. It is
// all the I-Decode dispatch needs, and the front half of DecodeSpec: it
// fails exactly where DecodeSpec fails, with ErrShort when buf is too
// short (the I-Decode stage treats that as insufficient bytes in the IB).
func DecodeShape(buf []byte, t DataType) (mode AddrMode, indexed bool, n int, err error) {
	if len(buf) < 1 {
		return 0, false, 0, ErrShort
	}
	sh := shapes[buf[0]]
	n = 1
	if sh.kind == shapeIndex {
		if len(buf) < 2 {
			return 0, true, 0, ErrShort
		}
		indexed, n = true, 2
		sh = shapes[buf[1]]
		// The base of an indexed specifier must itself reference memory:
		// literal (0x0-0x3), register (0x5), immediate (0x8F) and a
		// second index prefix (0x4) are reserved addressing mode faults.
		if !sh.indexable {
			if sh.kind == shapeIndex {
				return 0, true, 0, errDoubleIndex
			}
			return 0, true, 0, errIllegalIndexBase
		}
	}
	ext := int(sh.ext)
	if sh.kind == shapeImmediate {
		// A quad/double immediate is a 9-byte specifier — wider than the
		// 8-byte IB, so the 11/780 model cannot decode it in one request;
		// the subset excludes it.
		if ext = t.Size(); ext > 4 {
			return sh.mode, indexed, 0, errWideImmediate
		}
	}
	n += ext
	if len(buf) < n {
		return sh.mode, indexed, 0, ErrShort
	}
	return sh.mode, indexed, n, nil
}

// DecodeSpec decodes one operand specifier of data type t from the front
// of buf: DecodeShape, then the register, index register and
// displacement (or literal or immediate value) the shape locates. It
// returns ErrShort when buf is too short.
func DecodeSpec(buf []byte, t DataType) (DecodedSpec, error) {
	mode, indexed, n, err := DecodeShape(buf, t)
	if err != nil {
		return DecodedSpec{Index: -1}, err
	}
	ds := DecodedSpec{Mode: mode, Index: -1, Len: n}
	b, at := buf[0], 1
	if indexed {
		ds.Index = int(b & 0xF)
		b, at = buf[1], 2
	}
	ext := buf[at:n]
	switch mode {
	case ModeLiteral:
		ds.Disp = int32(b & 0x3F)
	case ModeImmediate, ModeAbsolute:
		// The I-stream constant or address, zero-extended.
		var v uint32
		for i, x := range ext {
			v |= uint32(x) << (8 * i)
		}
		ds.Disp = int32(v)
	case ModeByteDisp, ModeByteDispDeferred:
		ds.Reg, ds.Disp = int(b&0xF), int32(int8(ext[0]))
	case ModeWordDisp, ModeWordDispDeferred:
		ds.Reg, ds.Disp = int(b&0xF), int32(int16(uint16(ext[0])|uint16(ext[1])<<8))
	case ModeLongDisp, ModeLongDispDeferred:
		ds.Reg = int(b & 0xF)
		ds.Disp = int32(uint32(ext[0]) | uint32(ext[1])<<8 | uint32(ext[2])<<16 | uint32(ext[3])<<24)
	default: // register, register deferred, autoincrement/decrement
		ds.Reg = int(b & 0xF)
	}
	return ds, nil
}

// DecodeBranchDisp decodes a branch displacement of size 1 or 2 bytes.
func DecodeBranchDisp(buf []byte, size int) (int32, error) {
	if len(buf) < size {
		return 0, ErrShort
	}
	switch size {
	case 1:
		return int32(int8(buf[0])), nil
	case 2:
		return int32(int16(uint16(buf[0]) | uint16(buf[1])<<8)), nil
	}
	return 0, errors.New("vax: bad branch displacement size")
}

// Decode decodes a complete instruction from the front of buf, returning
// the reconstructed Instr (without runtime-only fields such as effective
// addresses) and the number of bytes consumed. It is the offline
// counterpart of the incremental IBox path and is used by tests and the
// trace-driven baseline.
func Decode(buf []byte) (*Instr, int, error) {
	op, err := DecodeOpcode(buf)
	if err != nil {
		return nil, 0, err
	}
	info := op.Info()
	in := &Instr{Op: op}
	n := 1
	for i := range info.Specs {
		ds, err := DecodeSpec(buf[n:], info.Specs[i].Type)
		if err != nil {
			return nil, n, err
		}
		sp := Specifier{
			Mode:  ds.Mode,
			Reg:   ds.Reg,
			Index: ds.Index,
			Disp:  ds.Disp,
		}
		if ds.Mode == ModeAbsolute {
			// The I-stream longword of an absolute specifier IS the
			// operand address; mirror the encoder's source field.
			sp.Addr = uint32(ds.Disp)
		}
		in.Specs = append(in.Specs, sp)
		n += ds.Len
	}
	if info.BranchDispSize > 0 {
		d, err := DecodeBranchDisp(buf[n:], info.BranchDispSize)
		if err != nil {
			return nil, n, err
		}
		in.BranchDisp = d
		n += info.BranchDispSize
	}
	return in, n, nil
}
