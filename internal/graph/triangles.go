package graph

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// TriangleCount returns the exact number of triangles T in the graph using
// the degeneracy-oriented node iterator: every edge is oriented along a
// degeneracy ordering, and for every vertex the intersections of out-
// neighborhoods are counted. The total work is O(mκ), matching
// Chiba–Nishizeki up to constants, spread over GOMAXPROCS workers (the
// per-vertex counts are independent and their int64 sum is exact, so the
// result is identical at any worker count).
func (g *Graph) TriangleCount() int64 {
	return g.TriangleCountWorkers(0)
}

// triangleCountChunk is the vertex-range granularity of the parallel
// counter: small enough to balance skewed out-degree distributions, large
// enough that the claim counter is not contended.
const triangleCountChunk = 1024

// TriangleCountWorkers is TriangleCount with an explicit worker count;
// workers <= 0 selects GOMAXPROCS. Workers claim contiguous vertex ranges and
// sum per-range counts, so ground-truth computation scales with cores instead
// of dominating experiment wall-clock.
func (g *Graph) TriangleCountWorkers(workers int) int64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out, _ := g.DegeneracyOrientation()

	countRange := func(lo, hi int) int64 {
		var count int64
		for v := lo; v < hi; v++ {
			ov := out[v]
			for _, w := range ov {
				count += int64(sortedIntersectionSize(ov, out[w]))
			}
		}
		return count
	}

	if workers == 1 || g.n < 2*triangleCountChunk {
		for v := range out {
			sort.Ints(out[v])
		}
		return countRange(0, g.n)
	}

	// Phase 1: sort out-neighbor lists so pairwise intersection is a sorted
	// merge; each vertex's list is touched by exactly one worker.
	// Phase 2: count over claimed vertex ranges. Both phases hand out chunks
	// through an atomic cursor.
	chunks := (g.n + triangleCountChunk - 1) / triangleCountChunk
	runPhase := func(phase func(lo, hi int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c := int(next.Add(1)) - 1
					if c >= chunks {
						return
					}
					lo := c * triangleCountChunk
					hi := min(lo+triangleCountChunk, g.n)
					phase(lo, hi)
				}
			}()
		}
		wg.Wait()
	}

	runPhase(func(lo, hi int) {
		for v := lo; v < hi; v++ {
			sort.Ints(out[v])
		}
	})
	var total atomic.Int64
	runPhase(func(lo, hi int) {
		total.Add(countRange(lo, hi))
	})
	return total.Load()
}

// TriangleCountBrute counts triangles by enumerating all vertex triples that
// are pairwise adjacent. It is O(n^3) and exists purely as an independent
// cross-check for small graphs in tests.
func (g *Graph) TriangleCountBrute() int64 {
	var count int64
	for a := 0; a < g.n; a++ {
		for b := a + 1; b < g.n; b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < g.n; c++ {
				if g.HasEdge(a, c) && g.HasEdge(b, c) {
					count++
				}
			}
		}
	}
	return count
}

// EdgeTriangleCounts returns t_e, the number of triangles containing each
// edge, indexed in the graph's canonical edge order (see Edges). The sum of
// all t_e equals 3T. The computation intersects sorted neighborhoods per
// edge, i.e. the Chiba–Nishizeki edge iterator, in O(Σ_e d_e) = O(mκ) time.
func (g *Graph) EdgeTriangleCounts() []int64 {
	counts := make([]int64, len(g.edges))
	for i, e := range g.edges {
		counts[i] = int64(sortedIntersectionSize(g.Neighbors(int(e.U)), g.Neighbors(int(e.V))))
	}
	return counts
}

// EdgeTriangleCountMap returns t_e keyed by normalized edge. It is a
// convenience wrapper around EdgeTriangleCounts for callers that look edges
// up by value rather than by index.
func (g *Graph) EdgeTriangleCountMap() map[Edge]int64 {
	m := make(map[Edge]int64, len(g.edges))
	counts := g.EdgeTriangleCounts()
	for i, e := range g.edges {
		m[e] = counts[i]
	}
	return m
}

// TrianglesOfEdge returns the number of triangles containing the given edge,
// i.e. |N(u) ∩ N(v)|. It returns 0 if e is not an edge of the graph.
func (g *Graph) TrianglesOfEdge(e Edge) int64 {
	if !g.HasEdge(int(e.U), int(e.V)) {
		return 0
	}
	return int64(sortedIntersectionSize(g.Neighbors(int(e.U)), g.Neighbors(int(e.V))))
}

// ListTriangles enumerates every triangle exactly once (vertices sorted
// within each triangle) using the degeneracy orientation. For graphs with
// many triangles this allocates Θ(T) memory; use TriangleCount when only the
// number is needed.
func (g *Graph) ListTriangles() []Triangle {
	out, cd := g.DegeneracyOrientation()
	for v := range out {
		sort.Ints(out[v])
	}
	var tris []Triangle
	for v := 0; v < g.n; v++ {
		ov := out[v]
		for _, w := range ov {
			ow := out[w]
			i, j := 0, 0
			for i < len(ov) && j < len(ow) {
				switch {
				case ov[i] < ow[j]:
					i++
				case ov[i] > ow[j]:
					j++
				default:
					tris = append(tris, NewTriangle(v, w, ov[i]))
					i++
					j++
				}
			}
		}
	}
	_ = cd
	return tris
}

// GlobalClusteringCoefficient returns 3T / W where W is the number of wedges;
// it is 0 for wedge-free graphs. Included because triangle counting papers
// (and downstream users) typically report it alongside T.
func (g *Graph) GlobalClusteringCoefficient() float64 {
	w := g.Wedges()
	if w == 0 {
		return 0
	}
	return 3 * float64(g.TriangleCount()) / float64(w)
}

// sortedIntersectionSize returns |a ∩ b| for two sorted int slices.
func sortedIntersectionSize(a, b []int) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
