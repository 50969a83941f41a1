package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"degentri/internal/graph"
)

func triangleGraph() *graph.Graph {
	return graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
}

func TestMemoryStreamBasic(t *testing.T) {
	s := FromGraph(triangleGraph())
	if m, ok := s.Len(); !ok || m != 3 {
		t.Fatalf("Len = %d,%v", m, ok)
	}
	if _, err := s.Next(); err != ErrNoPass {
		t.Fatalf("Next before Reset: %v", err)
	}
	edges, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 {
		t.Fatalf("collected %d edges", len(edges))
	}
	// A second pass sees the identical order.
	edges2, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		if edges[i] != edges2[i] {
			t.Fatalf("pass order changed at %d: %v vs %v", i, edges[i], edges2[i])
		}
	}
}

func TestMemoryStreamEndOfPass(t *testing.T) {
	s := FromEdges([]graph.Edge{{U: 0, V: 1}})
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != ErrEndOfPass {
		t.Fatalf("expected end of pass, got %v", err)
	}
	// Repeated Next at end keeps returning ErrEndOfPass.
	if _, err := s.Next(); err != ErrEndOfPass {
		t.Fatalf("expected end of pass, got %v", err)
	}
}

func TestFromGraphShuffledIsPermutationAndDeterministic(t *testing.T) {
	g := graph.FromEdges(0, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}, {U: 0, V: 2},
	})
	s1 := FromGraphShuffled(g, 99)
	s2 := FromGraphShuffled(g, 99)
	s3 := FromGraphShuffled(g, 100)
	e1, _ := Collect(s1)
	e2, _ := Collect(s2)
	e3, _ := Collect(s3)
	if len(e1) != g.NumEdges() {
		t.Fatalf("length %d", len(e1))
	}
	// Same seed: same order.
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("same seed produced different orders")
		}
	}
	// Different seed: should be a different order for this many edges
	// (probability of coincidence is 1/720).
	same := true
	for i := range e1 {
		if e1[i] != e3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical order")
	}
	// It is still a permutation of the edge set.
	set := make(map[graph.Edge]int)
	for _, e := range g.Edges() {
		set[e]++
	}
	for _, e := range e1 {
		set[e.Normalize()]--
	}
	for e, c := range set {
		if c != 0 {
			t.Fatalf("edge %v count mismatch %d", e, c)
		}
	}
}

func TestForEachAndCountEdges(t *testing.T) {
	s := FromGraph(triangleGraph())
	n, err := CountEdges(s)
	if err != nil || n != 3 {
		t.Fatalf("CountEdges = %d, %v", n, err)
	}
	sum := 0
	if _, err := ForEach(s, func(e graph.Edge) error { sum += int(e.U) + int(e.V); return nil }); err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	g := triangleGraph()
	s := FromGraphShuffled(g, 1)
	g2, err := Materialize(s)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.TriangleCount() != g.TriangleCount() {
		t.Fatalf("round trip mismatch: %v vs %v", g2, g)
	}
}

func TestPassCounter(t *testing.T) {
	s := NewPassCounter(FromGraph(triangleGraph()))
	if m, ok := s.Len(); !ok || m != 3 {
		t.Fatalf("Len = %d,%v", m, ok)
	}
	for i := 0; i < 4; i++ {
		if _, err := CountEdges(s); err != nil {
			t.Fatal(err)
		}
	}
	if s.Passes() != 4 {
		t.Fatalf("Passes = %d, want 4", s.Passes())
	}
	if s.EdgesRead() != 12 {
		t.Fatalf("EdgesRead = %d, want 12", s.EdgesRead())
	}
}

func TestFileStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	content := "# comment\n% another comment\n0 1\n\n1 2\n0 2 extra-ignored\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := OpenFile(path)
	defer fs.Close()
	if _, ok := fs.Len(); ok {
		t.Error("length should be unknown before a pass")
	}
	if _, err := fs.Next(); err != ErrNoPass {
		t.Fatalf("Next before Reset: %v", err)
	}
	edges, err := Collect(fs)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
	if m, ok := fs.Len(); !ok || m != 3 {
		t.Fatalf("Len after a pass = %d,%v", m, ok)
	}
	// Second pass after Close: stream must still be usable.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := CountEdges(fs)
	if err != nil || n != 3 {
		t.Fatalf("second pass: %d, %v", n, err)
	}
}

func TestFileStreamErrors(t *testing.T) {
	fs := OpenFile("/nonexistent/definitely/missing.txt")
	if err := fs.Reset(); err == nil {
		t.Fatal("expected error opening missing file")
	}

	// Every parse error is malformed input and names its line.
	dir := t.TempDir()
	for name, text := range map[string]string{
		"bad token":    "0 1\n0 x\n",
		"short line":   "0 1\n42\n",
		"negative id":  "0 1\n1 -2\n",
		"id above cap": "0 1\n0 3000000000\n",
	} {
		path := filepath.Join(dir, "bad.txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		fs := OpenFile(path)
		_, err := CountEdges(fs)
		fs.Close()
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "bad.txt:2:") {
			t.Errorf("%s: CountEdges = %v, want ErrMalformed naming bad.txt:2", name, err)
		}
	}
}

func TestWriteEdgeListAndGraphFile(t *testing.T) {
	g := triangleGraph()
	var buf bytes.Buffer
	n, err := WriteEdgeList(&buf, FromGraph(g))
	if err != nil || n != 3 {
		t.Fatalf("WriteEdgeList: %d, %v", n, err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "graph.txt")
	if err := WriteGraphFile(path, g, "triangle"); err != nil {
		t.Fatal(err)
	}
	fs := OpenFile(path)
	defer fs.Close()
	g2, err := Materialize(fs)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 || g2.TriangleCount() != 1 {
		t.Fatalf("round-tripped graph %v", g2)
	}
}

func TestSharedMeter(t *testing.T) {
	root := NewSharedMeter(nil)
	m := NewSharedMeter(root)
	m.Charge(10)
	m.Charge(5)
	if m.Current() != 15 || m.Peak() != 15 {
		t.Fatalf("meter current %d, peak %d, want 15 and 15", m.Current(), m.Peak())
	}
	m.Release(12)
	if m.Current() != 3 || m.Peak() != 15 {
		t.Fatalf("meter current %d, peak %d, want 3 and 15", m.Current(), m.Peak())
	}
	// A sibling's words add to the parent's, not to m's.
	sib := NewSharedMeter(root)
	sib.Charge(20)
	if m.Peak() != 15 || root.Current() != 23 || root.Peak() != 23 {
		t.Fatalf("m peak %d, root current %d, peak %d, want 15, 23 and 23", m.Peak(), root.Current(), root.Peak())
	}
	sib.Release(20)
	m.Release(3)
	if root.Current() != 0 || root.Peak() != 23 {
		t.Fatalf("root current %d, peak %d, want 0 and 23", root.Current(), root.Peak())
	}
}

func TestSharedMeterPanics(t *testing.T) {
	m := NewSharedMeter(nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Charge(-1) should panic")
			}
		}()
		m.Charge(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release(-1) should panic")
			}
		}()
		m.Release(-1)
	}()
}

// TestFileStreamLineTooLong: a newline-free blob must fail with a clean
// error instead of growing the read buffer without bound.
func TestFileStreamLineTooLong(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{'7'}, 1<<20)
	for written := 0; written <= 17<<20; written += len(chunk) {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs := OpenFile(path)
	defer fs.Close()
	if _, err := CountEdges(fs); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "longer than") {
		t.Fatalf("expected a line-too-long ErrMalformed, got %v", err)
	}
}

// TestVertexCount pins the vertex count every reader reports beside its
// length, 1 + the largest vertex ID: from a memory stream's edges, from a
// .bex footer before any pass (the largest of the blocks' maxima), and from
// a text's parse, unknown until its first pass has completed.
func TestVertexCount(t *testing.T) {
	edges := []graph.Edge{{U: 3, V: 1}, {U: 0, V: 41}, {U: 7, V: 7}}
	check := func(what string, s Stream, want int, wantOK bool) {
		t.Helper()
		if n, ok := VerticesOf(s); n != want || ok != wantOK {
			t.Errorf("%s: Vertices() = %d, %v; want %d, %v", what, n, ok, want, wantOK)
		}
	}
	mem := FromEdges(edges)
	check("memory", mem, 42, true)
	check("memory, negative IDs only", FromEdges([]graph.Edge{{U: -1, V: -5}}), 0, true)
	check("memory, empty", FromEdges(nil), 0, true)

	dir := t.TempDir()
	bex := filepath.Join(dir, "g.bex")
	if _, err := WriteBex2File(bex, mem, 2); err != nil {
		t.Fatal(err)
	}
	bs, err := OpenBex2(bex)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	check(".bex before any pass", bs, 42, true)

	text := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(text, []byte("3 1\n0 41\n# 99 99\n7 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := OpenFile(text)
	defer fs.Close()
	check("text before its first pass", fs, 0, false)
	if _, err := CountEdges(fs); err != nil {
		t.Fatal(err)
	}
	check("text after its first pass", fs, 42, true)
	if _, err := CountEdges(fs); err != nil {
		t.Fatal(err)
	}
	check("text after a pass on its copy", fs, 42, true)
}
