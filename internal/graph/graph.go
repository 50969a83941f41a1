package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Graph is a simple undirected graph in compressed sparse row (CSR) form.
// Neighbor lists are sorted increasingly, which makes adjacency queries a
// binary search and triangle counting a sorted-merge intersection.
//
// The zero value is an empty graph; use NewBuilder (or FromEdges) to
// construct populated graphs.
type Graph struct {
	n       int
	offsets []int // len n+1
	neigh   []int // len 2m
	edges   []Edge
}

// Builder accumulates edges and produces a Graph. Duplicate edges and self
// loops are dropped (the model in the paper is a simple graph given as a list
// of unrepeated edges; builders tolerate dirty input for convenience).
//
// Edges are appended to a slice and sorted+deduplicated lazily (on Build or
// NumEdges), which makes AddEdge a few nanoseconds instead of a hash-map
// insert. The working memory is proportional to the number of AddEdge calls
// until the next dedup, not the number of distinct edges.
type Builder struct {
	n      int
	edges  []Edge
	sorted bool // edges is sorted and duplicate-free
}

// NewBuilder returns a Builder for a graph with at least n vertices. The
// vertex count grows automatically if edges mention larger vertex IDs.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n, sorted: true}
}

// AddEdge adds the undirected edge {u, v}. Self loops and duplicates are
// ignored. Vertex IDs outside [0, MaxVertexID] are a programming error and
// panic.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative vertex id in edge (%d,%d)", u, v))
	}
	if u == v {
		return
	}
	e := NewEdge(u, v) // panics on an ID above MaxVertexID
	if int(e.V) >= b.n {
		b.n = int(e.V) + 1
	}
	// Appending in already-sorted order (the common case when re-building
	// from another graph's edge list) keeps the slice dedup-free for free.
	if b.sorted && len(b.edges) > 0 {
		last := b.edges[len(b.edges)-1]
		if e == last {
			return
		}
		if lessEdges(e, last) {
			b.sorted = false
		}
	}
	b.edges = append(b.edges, e)
}

// AddEdges adds all edges in the slice.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(int(e.U), int(e.V))
	}
}

// dedup sorts the accumulated edges lexicographically and removes duplicates
// in place.
func (b *Builder) dedup() {
	if b.sorted {
		return
	}
	slices.SortFunc(b.edges, compareEdges)
	b.edges = slices.Compact(b.edges)
	b.sorted = true
}

// NumVertices reports the vertex count Build will allocate: the larger of
// NewBuilder's n and one more than the largest ID added.
func (b *Builder) NumVertices() int { return b.n }

// NumEdges reports the number of distinct edges added so far.
func (b *Builder) NumEdges() int {
	b.dedup()
	return len(b.edges)
}

// Build finalizes the builder into an immutable Graph. The builder remains
// usable afterwards.
func (b *Builder) Build() *Graph {
	b.dedup()
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	return fromSortedDistinctEdges(b.n, edges)
}

// lessEdges reports whether a sorts strictly before b lexicographically.
func lessEdges(a, b Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// compareEdges is the lexicographic edge order as a three-way comparison.
func compareEdges(a, b Edge) int {
	if a.U != b.U {
		return cmp.Compare(a.U, b.U)
	}
	return cmp.Compare(a.V, b.V)
}

// FromEdges builds a graph directly from an edge list. Duplicates and self
// loops are dropped. n is a lower bound on the vertex count.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.AddEdges(edges)
	return b.Build()
}

func fromSortedDistinctEdges(n int, edges []Edge) *Graph {
	g := &Graph{
		n:       n,
		offsets: make([]int, n+1),
		neigh:   make([]int, 2*len(edges)),
		edges:   edges,
	}
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	cursor := make([]int, n)
	copy(cursor, g.offsets[:n])
	// Filling in (U,V)-sorted normalized edge order leaves every neighbor
	// list sorted without a per-vertex sort: vertex v first receives its
	// smaller neighbors u < v (one per edge {u,v}, in increasing u because
	// the list is sorted by U), then its larger neighbors w > v (in
	// increasing w because edges with U = v are sorted by V).
	for _, e := range edges {
		g.neigh[cursor[e.U]] = int(e.V)
		cursor[e.U]++
		g.neigh[cursor[e.V]] = int(e.U)
		cursor[e.V]++
	}
	return g
}

// NumVertices returns n, the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns m, the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return g.offsets[v+1] - g.offsets[v]
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Degrees returns a freshly allocated slice of all vertex degrees.
func (g *Graph) Degrees() []int {
	deg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		deg[v] = g.Degree(v)
	}
	return deg
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	return g.neigh[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge of the graph.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	// Search the shorter adjacency list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nb := g.Neighbors(u)
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// Edges returns the graph's edge list in normalized, lexicographic order.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge in the graph's canonical edge order.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// EdgeDegree returns d_e = min(d_u, d_v) for the edge e = {u, v}, as defined
// in Section 3 of the paper. It panics if e is not an edge of the graph.
func (g *Graph) EdgeDegree(e Edge) int {
	if !g.HasEdge(int(e.U), int(e.V)) {
		panic(fmt.Sprintf("graph: %v is not an edge", e))
	}
	du, dv := g.Degree(int(e.U)), g.Degree(int(e.V))
	if du < dv {
		return du
	}
	return dv
}

// EdgeDegreeSum returns d_E = Σ_e d_e, the quantity bounded by 2mκ in
// Chiba–Nishizeki's Lemma 3.1.
func (g *Graph) EdgeDegreeSum() int64 {
	var sum int64
	for _, e := range g.edges {
		du, dv := g.Degree(int(e.U)), g.Degree(int(e.V))
		if du < dv {
			sum += int64(du)
		} else {
			sum += int64(dv)
		}
	}
	return sum
}

// Wedges returns the number of paths of length two (wedges) in the graph,
// Σ_v d_v·(d_v−1)/2.
func (g *Graph) Wedges() int64 {
	var w int64
	for v := 0; v < g.n; v++ {
		d := int64(g.Degree(v))
		w += d * (d - 1) / 2
	}
	return w
}

// InducedSubgraph returns the subgraph induced by the given vertex set, along
// with the mapping from new vertex IDs to original ones. Vertices may be
// listed in any order; duplicates are ignored.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int) {
	keep := make(map[int]int, len(vertices))
	orig := make([]int, 0, len(vertices))
	for _, v := range vertices {
		g.checkVertex(v)
		if _, ok := keep[v]; ok {
			continue
		}
		keep[v] = len(orig)
		orig = append(orig, v)
	}
	b := NewBuilder(len(orig))
	for v, nv := range keep {
		for _, w := range g.Neighbors(v) {
			if nw, ok := keep[w]; ok && nv < nw {
				b.AddEdge(nv, nw)
			}
		}
	}
	return b.Build(), orig
}

// Validate performs internal consistency checks and returns an error
// describing the first violation found. It is primarily used by tests and by
// generators' own self-checks.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return errors.New("graph: negative vertex count")
	}
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if g.offsets[g.n] != len(g.neigh) {
		return fmt.Errorf("graph: final offset %d, want %d", g.offsets[g.n], len(g.neigh))
	}
	if len(g.neigh) != 2*len(g.edges) {
		return fmt.Errorf("graph: neighbor array length %d, want %d", len(g.neigh), 2*len(g.edges))
	}
	for v := 0; v < g.n; v++ {
		nb := g.Neighbors(v)
		for i, w := range nb {
			if w < 0 || w >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if w == v {
				return fmt.Errorf("graph: vertex %d has a self loop", v)
			}
			if i > 0 && nb[i-1] >= w {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted at position %d", v, i)
			}
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric adjacency between %d and %d", v, w)
			}
		}
	}
	for i, e := range g.edges {
		if e.U >= e.V {
			return fmt.Errorf("graph: edge %d = %v not normalized", i, e)
		}
		if !g.HasEdge(int(e.U), int(e.V)) {
			return fmt.Errorf("graph: edge list entry %v missing from adjacency", e)
		}
	}
	return nil
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, g.NumEdges())
}
