package stream

import (
	"bytes"
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
	if _, err := ForEach(s, func(e graph.Edge) error { sum += e.U + e.V; return nil }); err != nil {
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

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("0 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs = OpenFile(bad)
	if err := fs.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Next(); err == nil {
		t.Fatal("expected parse error")
	}

	short := filepath.Join(dir, "short.txt")
	if err := os.WriteFile(short, []byte("42\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs = OpenFile(short)
	fs.Reset()
	if _, err := fs.Next(); err == nil {
		t.Fatal("expected malformed-line error")
	}

	neg := filepath.Join(dir, "neg.txt")
	if err := os.WriteFile(neg, []byte("-1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs = OpenFile(neg)
	fs.Reset()
	if _, err := fs.Next(); err == nil {
		t.Fatal("expected negative-vertex error")
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

func TestSpaceMeter(t *testing.T) {
	m := NewSpaceMeter()
	m.Charge(10)
	m.Charge(5)
	if m.Current() != 15 || m.Peak() != 15 {
		t.Fatalf("meter %v", m)
	}
	m.Release(12)
	if m.Current() != 3 || m.Peak() != 15 {
		t.Fatalf("meter %v", m)
	}
	m.Release(100)
	if m.Current() != 0 {
		t.Fatalf("clamp failed: %v", m)
	}
	if m.String() == "" {
		t.Error("String empty")
	}
	m.Reset()
	if m.Current() != 0 || m.Peak() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSpaceMeterPanics(t *testing.T) {
	m := NewSpaceMeter()
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
	if _, err := CountEdges(fs); err == nil || !strings.Contains(err.Error(), "longer than") {
		t.Fatalf("expected a line-too-long error, got %v", err)
	}
}
