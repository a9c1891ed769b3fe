package vax

import "testing"

// FuzzDecode exercises the instruction decoder with arbitrary bytes: it
// must never panic, anything it accepts must re-encode to the bytes it
// consumed, and at every data type the specifier shape (DecodeShape)
// must agree with the full specifier decode and the reference model.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0xD0, 0x51, 0x52})             // MOVL R1, R2
	f.Add([]byte{0xC1, 0x8F, 1, 2, 3, 4, 0x53}) // ADDL3 #imm, ...
	f.Add([]byte{0x13, 0xFE})                   // BEQL .-2
	f.Add([]byte{0xFB, 0x01, 0xEF, 0, 0, 0, 0}) // CALLS
	f.Add([]byte{0x28, 0x28, 0x61, 0x62})       // MOVC3 len,(R1),(R2)
	f.Add([]byte{0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for typ := TypeByte; typ <= TypeDFloat; typ++ {
			checkAgainstRef(t, data, typ)
		}
		in, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := Encode(nil, in)
		if len(re) != n {
			t.Fatalf("re-encode length %d != consumed %d (%s)", len(re), n, in.Op)
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("re-encode byte %d: %#x != %#x (%s)", i, re[i], data[i], in.Op)
			}
		}
		if s := Disasm(in); s == "" {
			t.Fatal("empty disassembly for decodable instruction")
		}
	})
}
