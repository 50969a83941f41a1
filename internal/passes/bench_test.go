package passes_test

import (
	"fmt"
	"slices"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

// bankBenchStream is a Chung–Lu graph (n = 100,000, average degree 16,
// β = 2.5; 776,636 edges with the hubs, degrees up to 1,312) plus two planted
// hubs of degree 6,000 and 12,000, shuffled so every vertex's edges spread
// over the shards. Its group holds two instances on each hub and on the
// vertices of degree rank 1, 2, 4, …, 2^16, whose degrees run from 1,312 down
// to 7.
func bankBenchStream() ([]graph.Edge, []int) {
	const n = 100_000
	g := gen.ChungLu(n, 16, 2.5, 1)
	edges := slices.Clone(g.Edges())
	hubs := []int{n, n + 1}
	for i, hub := range hubs {
		for j := 0; j < 6000*(i+1); j++ {
			edges = append(edges, graph.NewEdge(hub, (j*7919)%n))
		}
	}
	rng := sampling.NewRNG(17)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	byDegree := make([]int, n)
	for v := range byDegree {
		byDegree[v] = v
	}
	slices.SortStableFunc(byDegree, func(a, b int) int { return g.Degree(b) - g.Degree(a) })
	var vertices []int
	for rank := 1; rank <= 1<<16; rank *= 2 {
		vertices = append(vertices, byDegree[rank-1])
	}
	vertices = append(vertices, hubs...)
	return edges, append(vertices, vertices...)
}

// BenchmarkSampleNeighborBanks times pass 5's bank sampler at one worker over
// the 64-shard grid, for a bank smaller than most group degrees (k = 64) and
// one larger than all but the hubs' (k = 4096), and reports ns per stream
// edge.
func BenchmarkSampleNeighborBanks(b *testing.B) {
	edges, vertices := bankBenchStream()
	groups := graph.NewVertexGroups(slices.Clone(vertices))
	for _, k := range []int{64, 4096} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for b.Loop() {
				x := passes.NewDirect(stream.FromEdges(edges), len(edges), 1)
				if _, err := passes.SampleNeighborBanks(x, groups, len(vertices), k, 1, 2, 3); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(edges)), "ns/edge")
		})
	}
}
