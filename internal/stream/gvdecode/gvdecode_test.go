package gvdecode

import (
	"math/rand"
	"testing"
)

// zigzag is the writer-side encoding of a signed delta.
func zigzag(d int32) uint32 { return uint32((d << 1) ^ (d >> 31)) }

// encodeGroups packs values (4 per control byte) into group-varint control
// and data streams, mirroring the .bex v2 writer's layout. len(vals) must be
// a multiple of 4.
func encodeGroups(t *testing.T, vals []uint32) (ctrl, data []byte) {
	t.Helper()
	if len(vals)%4 != 0 {
		t.Fatalf("encodeGroups: %d values, want multiple of 4", len(vals))
	}
	for i := 0; i < len(vals); i += 4 {
		var c byte
		for j := 0; j < 4; j++ {
			z := vals[i+j]
			l := 1
			for z >= 1<<(8*l) && l < 4 {
				l++
			}
			c |= byte(l-1) << (2 * j)
			for b := 0; b < l; b++ {
				data = append(data, byte(z>>(8*b)))
			}
		}
		ctrl = append(ctrl, c)
	}
	return ctrl, data
}

// encodeEdges turns an edge list (pairs of int32 vertices) into interleaved
// zigzag deltas and encodes them. len(edges) must be even (2 edges/group).
func encodeEdges(t *testing.T, edges [][2]int32) (ctrl, data []byte) {
	t.Helper()
	var u, v int32
	vals := make([]uint32, 0, 2*len(edges))
	for _, e := range edges {
		vals = append(vals, zigzag(e[0]-u), zigzag(e[1]-v))
		u, v = e[0], e[1]
	}
	return encodeGroups(t, vals)
}

func TestTables(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := c&3 + c>>2&3 + c>>4&3 + c>>6&3 + 4
		if int(LenTable[c]) != want {
			t.Fatalf("LenTable[%#x] = %d, want %d", c, LenTable[c], want)
		}
		// Each mask must only reference bytes inside the group's payload.
		for _, m := range ShufTable[c] {
			if m != 0x80 && int(m) >= want {
				t.Fatalf("ShufTable[%#x] references byte %d beyond length %d", c, m, want)
			}
		}
	}
}

func TestRefDecodesKnownEdges(t *testing.T) {
	edges := [][2]int32{
		{0, 1}, {0, 2}, {0, 70000}, {3, 1}, {3, 5}, {1000000, 999999},
		{1000000, 1000001}, {2147483646, 2147483645},
	}
	ctrl, data := encodeEdges(t, edges)
	// Pad so every group decodes from a full 16-byte window.
	data = append(data, make([]byte, 16)...)
	dst := make([][2]int32, len(edges))
	var st State
	Ref(ctrl, len(ctrl), data, dst, &st)
	if int(st.Done) != len(ctrl) {
		t.Fatalf("Done = %d, want %d", st.Done, len(ctrl))
	}
	if st.Flags != 0 {
		t.Fatalf("Flags = %#x on valid input", st.Flags)
	}
	for i, e := range edges {
		if dst[i] != e {
			t.Fatalf("edge %d = (%d,%d), want (%d,%d)", i, dst[i][0], dst[i][1], e[0], e[1])
		}
	}
}

// checkDiff runs kernel and reference on identical inputs and asserts
// bit-identical outputs: every decoded edge, both carries, Done, Flags,
// Consumed.
func checkDiff(t *testing.T, ctrl []byte, groups int, data []byte, st State) {
	t.Helper()
	refDst := make([][2]int32, 2*groups)
	refSt := st
	Ref(ctrl, groups, data, refDst, &refSt)

	gotDst := make([][2]int32, 2*groups)
	gotSt := st
	Decode(ctrl, groups, data, gotDst, &gotSt)

	if gotSt != refSt {
		t.Fatalf("state mismatch: kernel %+v, ref %+v", gotSt, refSt)
	}
	for i := 0; i < 2*int(refSt.Done); i++ {
		if gotDst[i] != refDst[i] {
			t.Fatalf("edge %d: kernel %v, ref %v", i, gotDst[i], refDst[i])
		}
	}
}

func TestDecodeMatchesRefRandom(t *testing.T) {
	if !Available() {
		t.Skip("no SIMD kernel on this CPU; Decode would just call Ref")
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		groups := rng.Intn(64)
		vals := make([]uint32, 4*groups)
		for i := range vals {
			// Random widths 1..4 bytes; raw values, not necessarily
			// valid prefixes — overflow/flag behavior must match too.
			w := 1 + rng.Intn(4)
			vals[i] = rng.Uint32() >> (8 * (4 - w))
		}
		ctrl, data := encodeGroups(t, vals)
		switch iter % 3 {
		case 0:
			data = append(data, make([]byte, 16)...) // full decode
		case 1: // exact length: tail groups stop at the window boundary
		case 2:
			if len(data) > 0 {
				data = data[:rng.Intn(len(data))] // truncated
			}
		}
		st := State{U: rng.Int31() - 1<<30, V: rng.Int31() - 1<<30}
		checkDiff(t, ctrl, groups, data, st)
	}
}

func TestDecodeMatchesRefAdversarial(t *testing.T) {
	if !Available() {
		t.Skip("no SIMD kernel on this CPU")
	}
	// All-0xFF payloads with every control byte: maximal values, guaranteed
	// lane overflow — Flags must be set identically.
	data := make([]byte, 64)
	for i := range data {
		data[i] = 0xFF
	}
	for c := 0; c < 256; c++ {
		ctrl := []byte{byte(c), byte(255 - c), byte(c)}
		checkDiff(t, ctrl, len(ctrl), data, State{})
	}
	// Empty and sub-window data.
	checkDiff(t, []byte{0x00}, 1, nil, State{})
	checkDiff(t, []byte{0xFF}, 1, make([]byte, 15), State{})
	checkDiff(t, nil, 0, data, State{})
}

// buildBench encodes an 8K-edge block (the .bex v2 default) in the shape the
// hot path sees: sorted edges, small deltas.
func buildBench(b *testing.B) (ctrl, data []byte, edges int) {
	b.Helper()
	const n = 8192
	rng := rand.New(rand.NewSource(7))
	var u, v int32
	vals := make([]uint32, 0, 2*n)
	for i := 0; i < n; i++ {
		nu := u + rng.Int31n(3)
		nv := rng.Int31n(1 << 17)
		vals = append(vals, zigzag(nu-u), zigzag(nv-v))
		u, v = nu, nv
	}
	var c []byte
	var d []byte
	for i := 0; i < len(vals); i += 4 {
		var cb byte
		for j := 0; j < 4; j++ {
			z := vals[i+j]
			l := 1
			for z >= 1<<(8*l) && l < 4 {
				l++
			}
			cb |= byte(l-1) << (2 * j)
			for k := 0; k < l; k++ {
				d = append(d, byte(z>>(8*k)))
			}
		}
		c = append(c, cb)
	}
	d = append(d, make([]byte, 16)...)
	return c, d, n
}

func BenchmarkRef8K(b *testing.B) {
	ctrl, data, n := buildBench(b)
	dst := make([][2]int32, n)
	b.SetBytes(int64(n) * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var st State
		Ref(ctrl, len(ctrl), data, dst, &st)
	}
}

func BenchmarkDecode8K(b *testing.B) {
	if !Available() {
		b.Skip("no SIMD kernel on this CPU")
	}
	ctrl, data, n := buildBench(b)
	dst := make([][2]int32, n)
	b.SetBytes(int64(n) * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var st State
		Decode(ctrl, len(ctrl), data, dst, &st)
	}
}
