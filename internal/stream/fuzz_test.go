package stream

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/graph"
)

// fuzzSeedBlock encodes edges into one real v2 block and returns its edge
// count and raw bytes (control area + payload), for seeding the fuzzer with
// well-formed inputs it can then mutate into near-valid corruption.
func fuzzSeedBlock(f *testing.F, edges []graph.Edge) (uint16, []byte) {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.bex")
	if _, err := WriteBex2File(path, FromEdges(edges), len(edges)); err != nil {
		f.Fatal(err)
	}
	s, err := OpenBex2(path)
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	b := s.cur.file.blocks[0]
	raw := make([]byte, b.length)
	file, err := os.Open(path)
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	if _, err := file.ReadAt(raw, b.off); err != nil {
		f.Fatal(err)
	}
	return uint16(b.count), raw
}

// FuzzBex2Decode is the block-level decode fuzz harness: on an arbitrary
// claimed edge count and arbitrary block bytes, the vectorized and scalar
// decode paths must agree exactly — identical edges on success, the
// identical ErrCorruptBlock diagnosis on failure — and neither may read out
// of bounds (an overrun panics the fuzz run). The CRC is computed over the
// fuzzed bytes so corruption reaches the decoder instead of being rejected
// at the checksum; CRC rejection itself happens before kernel dispatch and
// cannot diverge.
func FuzzBex2Decode(f *testing.F) {
	// Well-formed blocks of each shape: mixed deltas, negative jumps,
	// single-edge, odd count (scalar tail), dense small values (SIMD fast
	// path), plus raw corruption shapes.
	count, raw := fuzzSeedBlock(f, bex2TestEdges(100))
	f.Add(count, raw)
	f.Add(count, raw[:len(raw)/2])     // truncated mid-payload
	f.Add(count, append(raw, 0, 0, 0)) // trailing bytes
	f.Add(uint16(int(count)+7), raw)   // count overstates the data
	count3, raw3 := fuzzSeedBlock(f, []graph.Edge{{U: 1, V: 2}, {U: 1 << 30, V: 3}, {U: 5, V: 1 << 29}})
	f.Add(count3, raw3)
	f.Add(uint16(1), []byte{0x00, 0x06, 0x08, 0x04, 0x03})
	f.Add(uint16(8), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(uint16(1), []byte{})

	f.Fuzz(func(t *testing.T, claimed uint16, raw []byte) {
		count := int(claimed)%4096 + 1
		b := bex2Block{count: count, length: len(raw), crc: crc32.Checksum(raw, crcTable)}
		prev := SIMDDecodeEnabled()
		defer SetSIMDDecode(prev)

		scalar := make([]graph.Edge, count)
		SetSIMDDecode(false)
		errScalar := decodeBex2Block("fuzz", 0, b, raw, scalar, true)

		simd := make([]graph.Edge, count)
		SetSIMDDecode(true)
		errSIMD := decodeBex2Block("fuzz", 0, b, raw, simd, true)

		if (errScalar == nil) != (errSIMD == nil) {
			t.Fatalf("kernels disagree on validity: scalar=%v simd=%v", errScalar, errSIMD)
		}
		if errScalar != nil {
			if !errors.Is(errScalar, ErrCorruptBlock) {
				t.Fatalf("scalar error does not wrap ErrCorruptBlock: %v", errScalar)
			}
			// The scalar path is authoritative for the diagnosis (a flagged
			// kernel discards its work and re-decodes), so even the message
			// — which pins the offending edge — must match.
			if errScalar.Error() != errSIMD.Error() {
				t.Fatalf("diagnoses diverge:\nscalar: %v\nsimd:   %v", errScalar, errSIMD)
			}
			return
		}
		for i := range scalar {
			if scalar[i] != simd[i] {
				t.Fatalf("edge %d: scalar %v, simd %v", i, scalar[i], simd[i])
			}
		}
	})
}
