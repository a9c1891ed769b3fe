package vax

import (
	"errors"
	"testing"
)

// refDecodeSpec is the reference model: the byte-by-byte specifier
// decoder that the table-driven DecodeShape/DecodeSpec pair replaced,
// kept verbatim so the differential tests below can hold the new
// decoder to it on every input.
//
// It decodes one operand specifier of data type t from the front
// of buf. It returns ErrShort when buf is too short — the caller (the
// I-Decode stage) treats that as insufficient bytes in the IB.
func refDecodeSpec(buf []byte, t DataType) (DecodedSpec, error) {
	ds := DecodedSpec{Index: -1}
	if len(buf) < 1 {
		return ds, ErrShort
	}
	b := buf[0]
	n := 1
	if b>>4 == 0x4 { // index prefix
		ds.Index = int(b & 0xF)
		if len(buf) < 2 {
			return ds, ErrShort
		}
		b = buf[1]
		n = 2
		// The base of an indexed specifier must itself reference memory:
		// literal (0x0-0x3), register (0x5), immediate (0x8F) and a
		// second index prefix (0x4) are reserved addressing mode faults.
		switch {
		case b>>4 <= 0x3:
			return ds, errIllegalIndexBase
		case b>>4 == 0x5:
			return ds, errIllegalIndexBase
		case b == 0x8F:
			return ds, errIllegalIndexBase
		}
	}
	reg := int(b & 0xF)
	switch b >> 4 {
	case 0x0, 0x1, 0x2, 0x3: // short literal
		ds.Mode = ModeLiteral
		ds.Disp = int32(b & 0x3F)
	case 0x4:
		return ds, errors.New("vax: double index prefix")
	case 0x5:
		ds.Mode, ds.Reg = ModeRegister, reg
	case 0x6:
		ds.Mode, ds.Reg = ModeRegDeferred, reg
	case 0x7:
		ds.Mode, ds.Reg = ModeAutoDecrement, reg
	case 0x8:
		if reg == pcReg {
			ds.Mode = ModeImmediate
			sz := t.Size()
			if sz > 4 {
				// A quad/double immediate is a 9-byte specifier — wider
				// than the 8-byte IB, so the 11/780 model cannot decode
				// it in one request; the subset excludes it.
				return ds, errWideImmediate
			}
			if len(buf) < n+sz {
				return ds, ErrShort
			}
			var v uint32
			for i := 0; i < sz; i++ {
				v |= uint32(buf[n+i]) << (8 * i)
			}
			ds.Disp = int32(v)
			n += sz
		} else {
			ds.Mode, ds.Reg = ModeAutoIncrement, reg
		}
	case 0x9:
		if reg == pcReg {
			ds.Mode = ModeAbsolute
			if len(buf) < n+4 {
				return ds, ErrShort
			}
			ds.Disp = int32(uint32(buf[n]) | uint32(buf[n+1])<<8 |
				uint32(buf[n+2])<<16 | uint32(buf[n+3])<<24)
			n += 4
		} else {
			ds.Mode, ds.Reg = ModeAutoIncDeferred, reg
		}
	case 0xA, 0xB:
		if b>>4 == 0xA {
			ds.Mode = ModeByteDisp
		} else {
			ds.Mode = ModeByteDispDeferred
		}
		ds.Reg = reg
		if len(buf) < n+1 {
			return ds, ErrShort
		}
		ds.Disp = int32(int8(buf[n]))
		n++
	case 0xC, 0xD:
		if b>>4 == 0xC {
			ds.Mode = ModeWordDisp
		} else {
			ds.Mode = ModeWordDispDeferred
		}
		ds.Reg = reg
		if len(buf) < n+2 {
			return ds, ErrShort
		}
		ds.Disp = int32(int16(uint16(buf[n]) | uint16(buf[n+1])<<8))
		n += 2
	case 0xE, 0xF:
		if b>>4 == 0xE {
			ds.Mode = ModeLongDisp
		} else {
			ds.Mode = ModeLongDispDeferred
		}
		ds.Reg = reg
		if len(buf) < n+4 {
			return ds, ErrShort
		}
		ds.Disp = int32(uint32(buf[n]) | uint32(buf[n+1])<<8 |
			uint32(buf[n+2])<<16 | uint32(buf[n+3])<<24)
		n += 4
	}
	ds.Len = n
	return ds, nil
}

// sameDecodeErr reports whether two decode errors are the same: both
// nil, the same sentinel, or (for errors built per call) the same text.
func sameDecodeErr(got, want error) bool {
	switch {
	case got == nil || want == nil:
		return got == want
	case errors.Is(want, ErrShort), want == errIllegalIndexBase, want == errWideImmediate:
		return got == want
	}
	return got.Error() == want.Error()
}

// checkAgainstRef decodes buf with DecodeShape and DecodeSpec and holds
// both to the reference model.
func checkAgainstRef(t *testing.T, buf []byte, typ DataType) {
	t.Helper()
	want, wantErr := refDecodeSpec(buf, typ)
	mode, indexed, n, shapeErr := DecodeShape(buf, typ)
	got, gotErr := DecodeSpec(buf, typ)
	if !sameDecodeErr(shapeErr, wantErr) || !sameDecodeErr(gotErr, wantErr) {
		t.Fatalf("% x as %v: DecodeShape err %v, DecodeSpec err %v, reference err %v",
			buf, typ, shapeErr, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if mode != want.Mode || indexed != (want.Index >= 0) || n != want.Len {
		t.Fatalf("% x as %v: DecodeShape = %v indexed=%t len %d, reference %v index %d len %d",
			buf, typ, mode, indexed, n, want.Mode, want.Index, want.Len)
	}
	if got != want {
		t.Fatalf("% x as %v: DecodeSpec = %+v, reference %+v", buf, typ, got, want)
	}
}

// TestDecodeShapeMatchesReference runs every 1–2 byte prefix, as every
// data type, at every buffer length 0–8, through both decoders. The
// bytes after the prefix carry sign bits so displacement and immediate
// extension are checked too.
func TestDecodeShapeMatchesReference(t *testing.T) {
	tail := []byte{0x80, 0xFF, 0x7F, 0x01, 0xC3, 0x5A}
	buf := make([]byte, 2+len(tail))
	copy(buf[2:], tail)
	types := []DataType{TypeByte, TypeWord, TypeLong, TypeQuad, TypeFFloat, TypeDFloat}
	for b0 := 0; b0 < 256; b0++ {
		for b1 := 0; b1 < 256; b1++ {
			buf[0], buf[1] = byte(b0), byte(b1)
			for _, typ := range types {
				for l := 0; l <= len(buf); l++ {
					if l < 2 && b1 != 0 {
						continue // the second byte is not in the buffer
					}
					checkAgainstRef(t, buf[:l], typ)
				}
			}
		}
	}
}

// TestDecodeShapeErrorText pins the text of each decode error: the
// I-Decode stage wraps it into the abort it reports.
func TestDecodeShapeErrorText(t *testing.T) {
	for _, c := range []struct {
		buf  []byte
		typ  DataType
		want string
	}{
		{[]byte{0x44, 0x55}, TypeLong, "vax: illegal indexed base mode"},
		{[]byte{0x44, 0x8F}, TypeLong, "vax: illegal indexed base mode"},
		{[]byte{0x44, 0x44}, TypeLong, "vax: double index prefix"},
		{[]byte{0x8F, 1, 2, 3, 4, 5, 6, 7, 8}, TypeQuad, "vax: immediate wider than a longword unsupported"},
		{[]byte{0xE1, 1, 2}, TypeLong, "vax: insufficient bytes to decode"},
	} {
		_, _, _, err := DecodeShape(c.buf, c.typ)
		if err == nil || err.Error() != c.want {
			t.Errorf("DecodeShape(% x, %v) = %v, want %q", c.buf, c.typ, err, c.want)
		}
	}
}
