package graph

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewEdgeNormalizes(t *testing.T) {
	e := NewEdge(7, 3)
	if e.U != 3 || e.V != 7 {
		t.Fatalf("NewEdge(7,3) = %v, want (3,7)", e)
	}
	e = NewEdge(3, 7)
	if e.U != 3 || e.V != 7 {
		t.Fatalf("NewEdge(3,7) = %v, want (3,7)", e)
	}
}

// TestEdgeIsEightBytes pins the width every scan and the decoded-block
// cache pay per edge: two int32 endpoints.
func TestEdgeIsEightBytes(t *testing.T) {
	if size := unsafe.Sizeof(Edge{}); size != 8 {
		t.Fatalf("Edge takes %d bytes, want 8", size)
	}
}

// TestNewEdgeRejectsIDsOutsideInt32 pins that no ID is truncated: the
// largest int32 is stored as is, and one past it panics.
func TestNewEdgeRejectsIDsOutsideInt32(t *testing.T) {
	if e := NewEdge(MaxVertexID, 0); e.U != 0 || int(e.V) != MaxVertexID {
		t.Fatalf("NewEdge(MaxVertexID, 0) = %v", e)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewEdge(0, MaxVertexID+1) did not panic")
		}
	}()
	NewEdge(0, MaxVertexID+1)
}

func TestEdgeNormalizeIdempotent(t *testing.T) {
	f := func(u, v uint8) bool {
		e := Edge{U: int32(u), V: int32(v)}
		n1 := e.Normalize()
		n2 := n1.Normalize()
		return n1 == n2 && n1.U <= n1.V
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeHasAndLoop(t *testing.T) {
	if e := NewEdge(4, 4); !e.Has(4) || e.Has(5) {
		t.Errorf("Has misbehaves for the loop %v", e)
	}
	if e := NewEdge(5, 1); !e.Has(1) || !e.Has(5) || e.Has(2) {
		t.Errorf("Has misbehaves for %v", e)
	}
}

func TestEdgeString(t *testing.T) {
	if got := NewEdge(5, 2).String(); got != "(2,5)" {
		t.Errorf("String = %q, want (2,5)", got)
	}
}

func TestNewTriangleSorts(t *testing.T) {
	cases := [][3]int{{1, 2, 3}, {3, 2, 1}, {2, 3, 1}, {3, 1, 2}}
	for _, c := range cases {
		tr := NewTriangle(c[0], c[1], c[2])
		if tr.A != 1 || tr.B != 2 || tr.C != 3 {
			t.Errorf("NewTriangle(%v) = %v, want {1,2,3}", c, tr)
		}
	}
}

func TestNewTrianglePanicsOnDegenerate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for repeated vertex")
		}
	}()
	NewTriangle(1, 1, 2)
}

func TestTriangleEdges(t *testing.T) {
	tr := NewTriangle(5, 1, 9)
	edges := tr.Edges()
	want := [3]Edge{NewEdge(1, 5), NewEdge(1, 9), NewEdge(5, 9)}
	if edges != want {
		t.Fatalf("Edges() = %v, want %v", edges, want)
	}
	for _, e := range edges {
		if !tr.HasEdge(e) {
			t.Errorf("HasEdge(%v) = false", e)
		}
	}
	if tr.HasEdge(NewEdge(2, 3)) {
		t.Error("HasEdge reported an unrelated edge")
	}
}
