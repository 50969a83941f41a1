// Package gvdecode is the vectorized group-varint delta decode kernel behind
// the .bex v2 hot scan path (Stream VByte-style shuffle-table decoding;
// Lemire et al.).
//
// The .bex v2 block format stores four zigzagged deltas per control byte —
// two bits of byte-length each — followed by the values' packed little-endian
// bytes. That layout was chosen in PR 9 precisely because it vectorizes: the
// control byte is a direct index into a 256-entry table of 16-byte PSHUFB
// masks that expand one unaligned 16-byte load into four right-sized uint32
// lanes in a single instruction, and a parallel 256-entry length table
// advances the data cursor without touching the value bytes. Per control byte
// (four values = two edges) the SSSE3 kernel then zigzag-decodes, prefix-sums
// the (u, v)-interleaved deltas with one shift-add, adds the running (u, v)
// carry, and stores its four int32 lanes as two [2]int32 edges — the layout
// of the caller's edge type — with no per-value branches and no loop-carried
// chain through the value widths, where the scalar decoder pays shifts,
// masks, and a table add per value.
//
// The kernel accumulates vertex IDs in int32 lanes. Well-formed blocks (the
// writer refuses vertices outside int32) decode bit-identically to the
// scalar decoder, which accumulates in int64: every intermediate prefix value
// lies in [0, 2³¹), so 32-bit adds are exact. A corrupt block can push a lane
// out of that range; the kernel detects this as a set sign bit (any true
// value outside [0, 2³¹) maps to a negative int32 when the preceding state
// was exact), reports it in State.Flags, and the caller re-decodes the block
// with the authoritative scalar path to pin the exact offending edge — the
// two paths therefore agree byte-for-byte on valid input and error-for-error
// on corrupt input, which is what the fuzz harness in internal/stream proves.
//
// The package has no dependencies beyond the standard library and selects
// the kernel at runtime by CPUID: amd64 with SSSE3 gets the assembly kernel,
// everything else (and amd64 with SIMD disabled) keeps the portable scalar
// decoder in internal/stream. Ref is the pure-Go model of the kernel used by
// the differential tests.
package gvdecode

// ShufTable maps a group-varint control byte to the PSHUFB mask that expands
// the packed value bytes of its four values into four little-endian uint32
// lanes (absent high bytes become zero: PSHUFB writes 0 for mask bytes with
// the high bit set). Generated at init from the control byte's four 2-bit
// length fields; kept exported for the kernel's tests.
var ShufTable [256][16]byte

// LenTable maps a control byte to the total data-byte length of its four
// values (4..16).
var LenTable [256]uint8

func init() {
	for c := 0; c < 256; c++ {
		total := 0
		for v := 0; v < 4; v++ {
			l := int(c>>(2*v)&3) + 1
			for b := 0; b < 4; b++ {
				if b < l {
					ShufTable[c][4*v+b] = byte(total + b)
				} else {
					ShufTable[c][4*v+b] = 0x80
				}
			}
			total += l
		}
		LenTable[c] = uint8(total)
	}
}

// State carries the kernel's in/out registers across the assembly boundary:
// the running (u, v) prefix values in int32 (exact for well-formed blocks,
// see the package comment) plus the kernel's outputs.
type State struct {
	U, V     int32
	Done     int32  // groups (control bytes) decoded
	Flags    uint32 // nonzero: some decoded value fell outside [0, 2³¹)
	Consumed int64  // data bytes consumed
}

// Ref is the portable model of the assembly kernel, bit-exact with it by
// construction: int32 lane arithmetic, the same flag rule, the same stop
// conditions (groups exhausted or fewer than 16 data bytes left). It backs
// the differential tests and documents precisely what the assembly computes.
// dst must hold at least 2*groups edges.
func Ref(ctrl []byte, groups int, data []byte, dst [][2]int32, st *State) {
	u, v := st.U, st.V
	var flags uint32
	p := 0
	g := 0
	for g < groups && p+16 <= len(data) {
		c := ctrl[g]
		var z [4]uint32
		q := p
		for i := 0; i < 4; i++ {
			l := int(c>>(2*i)&3) + 1
			var x uint32
			for b := 0; b < l; b++ {
				x |= uint32(data[q+b]) << (8 * b)
			}
			z[i] = x
			q += l
		}
		for i := 0; i < 4; i += 2 {
			du := int32(z[i]>>1) ^ -int32(z[i]&1)
			dv := int32(z[i+1]>>1) ^ -int32(z[i+1]&1)
			u += du
			v += dv
			flags |= uint32(u) | uint32(v)
			dst[2*g+i/2] = [2]int32{u, v}
		}
		p += int(LenTable[c])
		g++
	}
	st.U, st.V = u, v
	st.Done = int32(g)
	st.Flags = flags & 0x8000_0000
	st.Consumed = int64(p)
}
