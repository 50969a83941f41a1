// Package gen generates the graph families used throughout the reproduction.
//
// The paper's motivation rests on graph classes with small degeneracy —
// planar graphs, minor-closed families, preferential attachment graphs — and
// its proofs use specific gadgets (the wheel graph of §1.1, the "book" graph
// of §1.2 whose triangles all share one edge, and the complete-bipartite-plus-
// blocks construction behind the lower bound). This package builds all of
// them deterministically from explicit seeds so experiments are reproducible
// and ground truth (m, T, κ) is either known in closed form or cheaply
// computable.
package gen

import (
	"fmt"

	"degentri/internal/graph"
)

// Path returns the path graph on n vertices (n-1 edges, no triangles, κ=1
// for n >= 2).
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Cycle returns the cycle graph on n vertices (n >= 3). κ = 2, T = 0 for
// n > 3 and T = 1 for n = 3.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: cycle needs n >= 3, got %d", n))
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

// Star returns the star graph: vertex 0 joined to vertices 1..n-1. κ = 1,
// ∆ = n-1, T = 0. Stars stress the gap between maximum degree and
// degeneracy that the paper's bound exploits.
func Star(n int) *graph.Graph {
	if n < 2 {
		panic(fmt.Sprintf("gen: star needs n >= 2, got %d", n))
	}
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// Complete returns the complete graph K_n. κ = n-1, T = C(n,3).
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{p,q} with parts {0..p-1} and {p..p+q-1}.
// It is triangle-free with degeneracy min(p,q).
func CompleteBipartite(p, q int) *graph.Graph {
	if p < 0 || q < 0 {
		panic("gen: negative part size")
	}
	b := graph.NewBuilder(p + q)
	for a := 0; a < p; a++ {
		for c := 0; c < q; c++ {
			b.AddEdge(a, p+c)
		}
	}
	return b.Build()
}

// Wheel returns the wheel graph of §1.1: a hub (vertex 0) joined to every
// vertex of a cycle on vertices 1..n-1. For n >= 5 it is planar with κ = 3,
// m = 2(n-1) edges and exactly T = n-1 triangles, the paper's example of a
// graph where the degeneracy bound gives polylogarithmic space while the
// worst-case bounds are Ω(√n).
func Wheel(n int) *graph.Graph {
	if n < 4 {
		panic(fmt.Sprintf("gen: wheel needs n >= 4, got %d", n))
	}
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
		next := v + 1
		if next == n {
			next = 1
		}
		b.AddEdge(v, next)
	}
	return b.Build()
}

// Book returns the "book" (triangle fan) graph of §1.2: pages triangles all
// sharing the common spine edge {0,1}; vertex 2+i is the apex of page i.
// n = pages+2, m = 2·pages+1, T = pages, κ = 2, and the spine edge lies on
// every triangle — the worst case for per-edge triangle variance that
// motivates the assignment rule.
func Book(pages int) *graph.Graph {
	if pages < 1 {
		panic(fmt.Sprintf("gen: book needs at least one page, got %d", pages))
	}
	b := graph.NewBuilder(pages + 2)
	b.AddEdge(0, 1)
	for i := 0; i < pages; i++ {
		apex := 2 + i
		b.AddEdge(0, apex)
		b.AddEdge(1, apex)
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph (planar, triangle-free, κ = 2 for
// grids with both dimensions >= 2).
func Grid(rows, cols int) *graph.Graph {
	if rows < 1 || cols < 1 {
		panic("gen: grid dimensions must be positive")
	}
	idx := func(r, c int) int { return r*cols + c }
	b := graph.NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(idx(r, c), idx(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(idx(r, c), idx(r+1, c))
			}
		}
	}
	return b.Build()
}

// TriangularGrid returns a planar triangulated grid: the rows×cols grid with
// one diagonal added per cell. Every cell contributes two triangles, κ <= 5
// (planar), and the triangle count is 2·(rows-1)·(cols-1).
func TriangularGrid(rows, cols int) *graph.Graph {
	if rows < 2 || cols < 2 {
		panic("gen: triangular grid needs both dimensions >= 2")
	}
	idx := func(r, c int) int { return r*cols + c }
	b := graph.NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(idx(r, c), idx(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(idx(r, c), idx(r+1, c))
			}
			if r+1 < rows && c+1 < cols {
				b.AddEdge(idx(r, c), idx(r+1, c+1))
			}
		}
	}
	return b.Build()
}

// Friendship returns the friendship (windmill) graph F_k: k triangles all
// sharing a single hub vertex 0. n = 2k+1, m = 3k, T = k, κ = 2. Unlike the
// book graph the triangles share a vertex but not an edge.
func Friendship(k int) *graph.Graph {
	if k < 1 {
		panic("gen: friendship graph needs k >= 1")
	}
	b := graph.NewBuilder(2*k + 1)
	for i := 0; i < k; i++ {
		u, v := 1+2*i, 2+2*i
		b.AddEdge(0, u)
		b.AddEdge(0, v)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// Apollonian returns an Apollonian network (stacked planar triangulation)
// produced by repeatedly inserting a vertex inside a face and joining it to
// the face's three corners, `insertions` times, starting from a single
// triangle. The result is a maximal planar chordal graph with κ = 3 and
// T = 3·insertions + 1 triangles... every insertion adds a vertex of degree
// 3 whose three new edges create exactly 3 new triangles.
// Faces are chosen round-robin to keep the construction deterministic and
// balanced.
func Apollonian(insertions int) *graph.Graph {
	if insertions < 0 {
		panic("gen: negative insertions")
	}
	b := graph.NewBuilder(3 + insertions)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	faces := [][3]int{{0, 1, 2}}
	next := 3
	for i := 0; i < insertions; i++ {
		f := faces[i%len(faces)]
		v := next
		next++
		b.AddEdge(v, f[0])
		b.AddEdge(v, f[1])
		b.AddEdge(v, f[2])
		faces = append(faces, [3]int{v, f[0], f[1]}, [3]int{v, f[1], f[2]}, [3]int{v, f[0], f[2]})
	}
	return b.Build()
}
