package graph

import (
	"fmt"
	"sort"
)

// CliqueCount returns the exact number of k-cliques in the graph for k >= 1.
// It enumerates cliques inside out-neighborhoods of a degeneracy orientation
// (the Chiba–Nishizeki strategy), so the running time is O(m·κ^{k-2}) — fast
// for the low-degeneracy graphs this repository targets. It is the ground
// truth for the k-clique extension experiments (Conjecture 7.1).
func (g *Graph) CliqueCount(k int) int64 {
	switch {
	case k < 1:
		panic(fmt.Sprintf("graph: clique size %d < 1", k))
	case k == 1:
		return int64(g.n)
	case k == 2:
		return int64(g.NumEdges())
	case k == 3:
		return g.TriangleCount()
	}
	out, _ := g.DegeneracyOrientation()
	for v := range out {
		sort.Ints(out[v])
	}
	var total int64
	// For every vertex v (the clique's first vertex in degeneracy order),
	// count (k-1)-cliques within the subgraph induced by out[v].
	for v := 0; v < g.n; v++ {
		total += g.countCliquesWithin(out, out[v], k-1)
	}
	return total
}

// countCliquesWithin counts j-cliques whose vertices all lie in candidates,
// where candidates is sorted and every pair of clique vertices must be
// adjacent via the orientation-respecting closure (u earlier than w implies w
// in out[u] — but adjacency inside candidates is checked against the full
// graph, which is equivalent because candidates are all out-neighbors of a
// common earlier vertex).
func (g *Graph) countCliquesWithin(out [][]int, candidates []int, j int) int64 {
	if j == 0 {
		return 1
	}
	if len(candidates) < j {
		return 0
	}
	if j == 1 {
		return int64(len(candidates))
	}
	var total int64
	for i, v := range candidates {
		// Restrict to candidates after v that are adjacent to v. Using the
		// out-orientation keeps each clique counted exactly once: within a
		// clique the degeneracy order is fixed, so the recursion always peels
		// vertices in that order.
		rest := candidates[i+1:]
		var next []int
		for _, w := range rest {
			if g.HasEdge(v, w) {
				next = append(next, w)
			}
		}
		total += g.countCliquesWithin(out, next, j-1)
	}
	return total
}

// CliqueCountBrute counts k-cliques by enumerating all vertex subsets of
// size k (k <= 5 recommended); it exists purely as an independent test
// oracle for small graphs.
func (g *Graph) CliqueCountBrute(k int) int64 {
	if k < 1 {
		panic("graph: clique size < 1")
	}
	verts := make([]int, g.n)
	for i := range verts {
		verts[i] = i
	}
	var count int64
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) == k {
			count++
			return
		}
		for i := start; i < g.n; i++ {
			ok := true
			for _, c := range chosen {
				if !g.HasEdge(c, i) {
					ok = false
					break
				}
			}
			if ok {
				rec(i+1, append(chosen, i))
			}
		}
	}
	rec(0, nil)
	return count
}
