package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/graph"
)

// benchGraph is a preferential-attachment graph large enough that the build
// cost is dominated by sorting and CSR fill, not allocation noise.
func benchGraphEdges(b *testing.B) (int, []graph.Edge) {
	b.Helper()
	g := gen.HolmeKim(20000, 8, 0.7, 7)
	edges := make([]graph.Edge, g.NumEdges())
	copy(edges, g.Edges())
	return g.NumVertices(), edges
}

// BenchmarkGraphBuild measures Builder.Build from a pre-sorted edge list
// (the common case: re-building from another graph's canonical edge order).
func BenchmarkGraphBuild(b *testing.B) {
	n, edges := benchGraphEdges(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.FromEdges(n, edges)
		if g.NumEdges() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkGraphBuildUnsorted measures Builder.Build from a reversed edge
// list, forcing the sort+dedup path.
func BenchmarkGraphBuildUnsorted(b *testing.B) {
	n, edges := benchGraphEdges(b)
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.FromEdges(n, edges)
		if g.NumEdges() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkTriangleCount measures the exact Chiba–Nishizeki-style counter on
// the CSR graph (the ground-truth cost every experiment pays).
func BenchmarkTriangleCount(b *testing.B) {
	g := gen.HolmeKim(20000, 8, 0.7, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.TriangleCount() == 0 {
			b.Fatal("no triangles")
		}
	}
}

// The lookup benchmarks probe one per-edge lookup structure with every edge of
// a fixed stream, the way the pass loops do: MayContain first, and the lookup
// only when it passes. Each reports ns per probe. The key-set sizes are the
// median and the largest that one default estimate (estimator seed 1) builds
// on ROADMAP's reference graph (Chung–Lu, n = 500K): vertex sets of 66 and
// 15,789 keys, edge indexes of 386 and 69,458 keys.

// lookupIDs is the vertex ID range of the probe stream and the key sets.
const lookupIDs = 500_000

// lookupSink keeps the benchmarked lookups' results live.
var lookupSink int

// skewedID draws a vertex with probability proportional to its expected
// degree in the reference graph (gen.ChungLu with n = 500K, average degree 16
// and β = 2.5): weight (i+1)^(-2/3), capped for the 41 heaviest vertices,
// which carry 1.48% of all endpoints.
func skewedID(rng *rand.Rand) int {
	const head = 41
	if rng.Float64() < 0.0148 {
		return rng.Intn(head)
	}
	// Past the cap, (i+1)^(1/3) is uniform.
	lo, hi := math.Cbrt(head+1), math.Cbrt(lookupIDs)
	x := lo + rng.Float64()*(hi-lo)
	return int(x*x*x) - 1
}

// lookupEdges returns the fixed degree-skewed probe stream, 2^20 edges.
func lookupEdges() []graph.Edge {
	rng := rand.New(rand.NewSource(42))
	edges := make([]graph.Edge, 1<<20)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(skewedID(rng)), V: int32(skewedID(rng))}
	}
	return edges
}

// vertexKeys returns n distinct degree-skewed vertices.
func vertexKeys(n int) []int {
	rng := rand.New(rand.NewSource(int64(n)))
	seen := make(map[int]bool, n)
	keys := make([]int, 0, n)
	for len(keys) < n {
		if v := skewedID(rng); !seen[v] {
			seen[v] = true
			keys = append(keys, v)
		}
	}
	return keys
}

// reportPerProbe reports the benchmark's time per probe.
func reportPerProbe(b *testing.B, probesPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probesPerOp), "ns/probe")
}

func BenchmarkSortedCounterInc(b *testing.B) {
	edges := lookupEdges()
	for _, n := range []int{66, 15_789} {
		c := graph.NewSortedCounter(vertexKeys(n))
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			for b.Loop() {
				for _, e := range edges {
					if c.MayContain(int(e.U)) {
						c.Inc(int(e.U))
					}
					if c.MayContain(int(e.V)) {
						c.Inc(int(e.V))
					}
				}
			}
			reportPerProbe(b, 2*len(edges))
		})
	}
}

func BenchmarkVertexGroupsLookup(b *testing.B) {
	edges := lookupEdges()
	for _, n := range []int{66, 15_789} {
		g := graph.NewVertexGroups(vertexKeys(n))
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			hits := 0
			for b.Loop() {
				for _, e := range edges {
					if g.MayContain(int(e.U)) {
						hits += len(g.Lookup(int(e.U)))
					}
					if g.MayContain(int(e.V)) {
						hits += len(g.Lookup(int(e.V)))
					}
				}
			}
			lookupSink = hits
			reportPerProbe(b, 2*len(edges))
		})
	}
}

func BenchmarkEdgeIndexLookup(b *testing.B) {
	edges := lookupEdges()
	for _, n := range []int{386, 69_458} {
		// Keys pair degree-skewed vertices, like the closure checks' (other
		// endpoint, sampled neighbor) keys; most are not stream edges.
		rng := rand.New(rand.NewSource(int64(n)))
		seen := make(map[graph.Edge]bool, n)
		keys := make([]graph.Edge, 0, n)
		for len(keys) < n {
			if e := graph.NewEdge(skewedID(rng), skewedID(rng)); e.U != e.V && !seen[e] {
				seen[e] = true
				keys = append(keys, e)
			}
		}
		ix := graph.NewEdgeIndex(keys)
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			hits := 0
			for b.Loop() {
				for _, e := range edges {
					if ix.MayContain(e) {
						hits += len(ix.Lookup(e.Normalize()))
					}
				}
			}
			lookupSink = hits
			reportPerProbe(b, len(edges))
		})
	}
}
