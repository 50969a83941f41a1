// Package graph provides the in-memory graph substrate used throughout the
// reproduction: CSR adjacency, degree and degeneracy (core) decomposition,
// and exact triangle counting in the style of Chiba–Nishizeki.
//
// Graphs are simple and undirected. Vertices are dense integers in [0, n).
// The package is the ground-truth engine for the streaming estimators: every
// experiment compares a streaming estimate against graph.Graph's exact counts.
package graph

import (
	"errors"
	"fmt"
)

// MaxVertexID is the largest vertex ID an Edge holds, 2³¹ − 1: the bound of
// a .bex v2 record and of the text parser.
const MaxVertexID = 1<<31 - 1

// ErrSparseIDs is wrapped by the error of a computation refused because its
// vertex IDs are too sparse (see CheckDenseIDs).
var ErrSparseIDs = errors.New("vertex IDs too sparse")

// CheckDenseIDs refuses n vertex slots for m edges when n is above both
// 2m + 1 and 2²³, with an error wrapping ErrSparseIDs that names n and m.
// Structures indexed by vertex ID (a Graph's CSR, the degeneracy peel's
// arrays) are sized by n, one more than the largest ID, not by the vertices
// present, so a two-edge input naming ID 2³¹ − 1 would allocate gigabytes.
// A dense graph of any size has n ≤ 2m + 1 (only isolated vertices push n
// past 2m) and always passes, and so does any n up to 2²³, the bound of this
// package's ID bitsets (rankTableLimit): an n-slot array of words then takes
// at most 64 MB, however few edges there are.
func CheckDenseIDs(n, m int) error {
	if n > 2*m+1 && n > rankTableLimit {
		return fmt.Errorf("n = %d (1 + the largest vertex ID) for m = %d edges: %w", n, m, ErrSparseIDs)
	}
	return nil
}

// Edge is an undirected edge between two vertices. Edges are stored in
// normalized form (U <= V) by most of this package; callers should use
// NewEdge or Normalize when constructing edges by hand.
//
// Its endpoints are int32, so an edge takes 8 bytes: every pass re-reads all
// m edges, and the decoded-block cache holds twice as many of them as with
// int fields. Vertex IDs are int everywhere else (function parameters, the
// CSR of Graph, Triangle); convert with int(e.U) when reading an endpoint.
type Edge struct {
	U, V int32
}

// NewEdge returns a normalized edge with the smaller endpoint first. It
// panics when an endpoint does not fit in an int32; truncating it would
// silently name another vertex.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	if int(int32(u)) != u || int(int32(v)) != v {
		panic(fmt.Sprintf("graph: vertex id in edge (%d,%d) outside the int32 range", u, v))
	}
	return Edge{U: int32(u), V: int32(v)}
}

// Normalize returns the edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Has reports whether v is an endpoint of e.
func (e Edge) Has(v int) bool {
	return int(e.U) == v || int(e.V) == v
}

// String implements fmt.Stringer.
func (e Edge) String() string {
	return fmt.Sprintf("(%d,%d)", e.U, e.V)
}

// Triangle is an unordered vertex triple. It is stored in sorted order
// (A < B < C) when produced by NewTriangle.
type Triangle struct {
	A, B, C int
}

// NewTriangle returns the triangle on the three given vertices with its
// fields sorted increasingly. It panics if two vertices coincide.
func NewTriangle(a, b, c int) Triangle {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	if a == b || b == c {
		panic(fmt.Sprintf("graph: degenerate triangle (%d,%d,%d)", a, b, c))
	}
	return Triangle{A: a, B: b, C: c}
}

// Edges returns the three edges of the triangle in normalized form.
func (t Triangle) Edges() [3]Edge {
	return [3]Edge{
		NewEdge(t.A, t.B),
		NewEdge(t.A, t.C),
		NewEdge(t.B, t.C),
	}
}

// HasEdge reports whether e (in any orientation) is one of the triangle's edges.
func (t Triangle) HasEdge(e Edge) bool {
	e = e.Normalize()
	for _, te := range t.Edges() {
		if te == e {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (t Triangle) String() string {
	return fmt.Sprintf("{%d,%d,%d}", t.A, t.B, t.C)
}
