// Package baseline implements the prior-work streaming triangle counters the
// paper compares against (Table 1), so that the experiment harness can
// measure who wins — and by how much — on the same streams as the paper's
// algorithm:
//
//   - Exact: store the whole graph, count exactly (the trivial Θ(m)-space
//     upper bound every streaming algorithm is trying to beat).
//   - Doulion: one-pass edge sparsification (Tsourakakis et al.), space Θ(pm).
//   - NeighborSampling: the one-pass estimator of Pavan et al. with space
//     Θ(m∆/T) for (1±ε) accuracy.
//   - HeavyLight: a multi-pass heavy/light estimator in the style of
//     McGregor–Vorotnikova–Vu with the √m degree cut-off, space Θ(m^{3/2}/T)
//     plus n words for the degree table.
//
// All estimators speak stream.Stream, charge their retained state to a root
// stream.SharedMeter of their own, and return core.Result so that the
// experiment tables can treat every algorithm uniformly.
package baseline

import (
	"degentri/internal/core"
	"degentri/internal/graph"
	"degentri/internal/stream"
)

// Exact materializes the stream and counts triangles exactly with the
// Chiba–Nishizeki-style counter from the graph package (parallel over vertex
// ranges: graph.TriangleCountWorkers with GOMAXPROCS workers, so ground-truth
// computation no longer dominates multi-algorithm experiments on multi-core
// machines). It is the ground truth and the Θ(m)-space reference point of
// every space comparison. Callers that already run trials on a worker pool
// should use ExactWorkers(src, 1) to avoid nesting parallelism.
func Exact(src stream.Stream) (core.Result, error) {
	return ExactWorkers(src, 0)
}

// ExactWorkers is Exact with an explicit triangle-count worker bound;
// workers <= 0 selects GOMAXPROCS. The count is identical at any setting.
func ExactWorkers(src stream.Stream, workers int) (core.Result, error) {
	meter := stream.NewSharedMeter(nil)
	counter := stream.NewPassCounter(src)
	b := graph.NewBuilder(0)
	m, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
		for _, e := range batch {
			b.AddEdge(int(e.U), int(e.V))
		}
		return nil
	})
	if err != nil {
		return core.Result{}, err
	}
	meter.Charge(int64(b.NumEdges()) * stream.WordsPerEdge)
	g := b.Build()
	// The CSR graph keeps 2m adjacency entries plus n+1 offsets.
	meter.Charge(int64(2*g.NumEdges()) + int64(g.NumVertices()+1))
	t := g.TriangleCountWorkers(workers)
	return core.Result{
		Estimate:       float64(t),
		Passes:         counter.Passes(),
		SpaceWords:     meter.Peak(),
		EdgesInStream:  m,
		TrianglesFound: int(t),
	}, nil
}
