package triangle

import (
	"degentri/internal/gen"
	"degentri/internal/graph"
)

// The generator helpers below wrap the internal workload generators so that
// examples and downstream users can create the paper's motivating graph
// families without touching internal packages. Each returns a plain edge
// list.

func edgesOf(g *graph.Graph) []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		edges = append(edges, Edge{U: int(e.U), V: int(e.V)})
	}
	return edges
}

// Wheel returns the wheel graph on n vertices (hub + cycle), the paper's §1.1
// example: planar, κ = 3, and exactly n−1 triangles for n ≥ 5.
func Wheel(n int) []Edge { return edgesOf(gen.Wheel(n)) }

// Book returns the book graph with the given number of pages: `pages`
// triangles all sharing one spine edge, the paper's §1.2 variance example.
func Book(pages int) []Edge { return edgesOf(gen.Book(pages)) }

// PreferentialAttachment returns a Barabási–Albert graph on n vertices where
// every new vertex attaches to k existing vertices; its degeneracy is exactly
// k, making it the canonical "real-world-like" low-degeneracy family.
func PreferentialAttachment(n, k int, seed uint64) []Edge {
	return edgesOf(gen.BarabasiAlbert(n, k, seed))
}

// ClusteredPreferentialAttachment returns a Holme–Kim graph: preferential
// attachment with triad formation, so the degeneracy stays exactly k while
// the triangle count grows linearly in n — the combination of "low sparsity,
// high triangle density" the paper identifies in real-world graphs.
// triadProb in [0, 1] controls how often a new link closes a triangle.
func ClusteredPreferentialAttachment(n, k int, triadProb float64, seed uint64) []Edge {
	return edgesOf(gen.HolmeKim(n, k, triadProb, seed))
}

// PowerLaw returns a Chung–Lu random graph with a power-law expected degree
// sequence (exponent beta > 2) and the given target average degree.
func PowerLaw(n int, avgDegree, beta float64, seed uint64) []Edge {
	return edgesOf(gen.ChungLu(n, avgDegree, beta, seed))
}

// Apollonian returns a stacked planar triangulation with the given number of
// vertex insertions: maximal planar, κ = 3, T = 3·insertions + 1.
func Apollonian(insertions int) []Edge { return edgesOf(gen.Apollonian(insertions)) }

// Friendship returns the windmill graph of k triangles sharing one hub
// vertex.
func Friendship(k int) []Edge { return edgesOf(gen.Friendship(k)) }
