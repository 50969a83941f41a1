package baseline

import (
	"fmt"

	"degentri/internal/core"
	"degentri/internal/graph"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

// DoulionConfig configures the one-pass sparsification estimator.
type DoulionConfig struct {
	// P is the edge retention probability in (0, 1].
	P float64
	// Seed drives the coin flips.
	Seed uint64
}

// Doulion implements the "triangle counting with a coin" estimator of
// Tsourakakis, Kang, Miller, Faloutsos (KDD 2009): keep every edge
// independently with probability p, count the triangles T' of the sparsified
// graph exactly, and report T' / p³. It is a single pass and stores ~pm
// edges; its relative variance blows up once p³·t_e terms get small, which is
// exactly the regime the comparison experiments probe.
func Doulion(src stream.Stream, cfg DoulionConfig) (core.Result, error) {
	if cfg.P <= 0 || cfg.P > 1 {
		return core.Result{}, fmt.Errorf("baseline: doulion retention probability %v outside (0,1]", cfg.P)
	}
	rng := sampling.NewRNG(cfg.Seed)
	meter := stream.NewSharedMeter(nil)
	counter := stream.NewPassCounter(src)

	// Independent Bernoulli(p) coins are realized as geometric gaps between
	// kept edges (identical distribution), so the pass costs one RNG draw per
	// kept edge instead of one per stream edge.
	b := graph.NewBuilder(0)
	kept := 0
	var skip int64
	if cfg.P < 1 {
		skip = rng.Geometric(cfg.P) - 1
	}
	m, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
		if cfg.P >= 1 {
			for _, e := range batch {
				b.AddEdge(int(e.U), int(e.V))
			}
			kept += len(batch)
			meter.Charge(int64(len(batch)) * stream.WordsPerEdge)
			return nil
		}
		for skip < int64(len(batch)) {
			e := batch[skip]
			b.AddEdge(int(e.U), int(e.V))
			kept++
			meter.Charge(stream.WordsPerEdge)
			skip += rng.Geometric(cfg.P)
		}
		skip -= int64(len(batch))
		return nil
	})
	if err != nil {
		return core.Result{}, err
	}
	g := b.Build()
	sparseT := g.TriangleCount()
	scale := 1.0 / (cfg.P * cfg.P * cfg.P)
	return core.Result{
		Estimate:       float64(sparseT) * scale,
		Passes:         counter.Passes(),
		SpaceWords:     meter.Peak(),
		EdgesInStream:  m,
		SampledEdges:   kept,
		TrianglesFound: int(sparseT),
	}, nil
}
