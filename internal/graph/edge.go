// Package graph provides the in-memory graph substrate used throughout the
// reproduction: CSR adjacency, degree and degeneracy (core) decomposition,
// and exact triangle counting in the style of Chiba–Nishizeki.
//
// Graphs are simple and undirected. Vertices are dense integers in [0, n).
// The package is the ground-truth engine for the streaming estimators: every
// experiment compares a streaming estimate against graph.Graph's exact counts.
package graph

import "fmt"

// MaxVertexID is the largest vertex ID an Edge holds, 2³¹ − 1: the bound of
// a .bex v2 record and of the text parser.
const MaxVertexID = 1<<31 - 1

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

// HasVertex reports whether v is one of the triangle's vertices.
func (t Triangle) HasVertex(v int) bool {
	return t.A == v || t.B == v || t.C == v
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

// Apex returns the vertex of the triangle not covered by edge e. It panics if
// e is not an edge of the triangle.
func (t Triangle) Apex(e Edge) int {
	e = e.Normalize()
	switch {
	case NewEdge(t.A, t.B) == e:
		return t.C
	case NewEdge(t.A, t.C) == e:
		return t.B
	case NewEdge(t.B, t.C) == e:
		return t.A
	default:
		panic(fmt.Sprintf("graph: edge %v is not part of triangle %v", e, t))
	}
}

// String implements fmt.Stringer.
func (t Triangle) String() string {
	return fmt.Sprintf("{%d,%d,%d}", t.A, t.B, t.C)
}
