package triangle

import (
	"fmt"

	"degentri/internal/clique"
	"degentri/internal/stream"
)

// CliqueOptions configures the streaming k-clique estimator, the library's
// implementation of the paper's Conjecture 7.1 future-work direction.
type CliqueOptions struct {
	// K is the clique size (3 ≤ K ≤ 8). K = 3 is triangle counting without
	// the assignment rule; prefer Estimate for triangles.
	K int
	// Epsilon is the target relative error in (0,1); zero selects 0.1. Any
	// other value outside (0, 1) is an error.
	Epsilon float64
	// Degeneracy is an upper bound on κ. When zero it is computed exactly
	// from the in-memory graph (which this entry point builds anyway); a
	// negative bound is an error.
	Degeneracy int
	// CliqueGuess is a lower-bound guess on the number of K-cliques used to
	// size the samples; it is required (the clique estimator does not run the
	// geometric search).
	CliqueGuess int64
	// SampleMultiplier scales the sample sizes; zero means 1. A negative or
	// non-finite value is an error.
	SampleMultiplier float64
	// Seed makes runs reproducible; zero means 1.
	Seed uint64
}

// ExactCliques returns the exact number of k-cliques of the graph given as an
// edge list (k >= 1).
func ExactCliques(edges []Edge, k int) int64 {
	return buildGraph(edges).CliqueCount(k)
}

// EstimateCliques runs the streaming k-clique estimator over the edge list,
// streamed in a seeded arbitrary order.
func EstimateCliques(edges []Edge, opts CliqueOptions) (Result, error) {
	if len(edges) == 0 {
		return Result{}, ErrNoEdges
	}
	if err := checkCliqueOptions(opts); err != nil {
		return Result{}, err
	}
	g := buildGraph(edges)
	if g.NumEdges() == 0 {
		// Every edge was a self loop or had a negative ID (see Estimate).
		return Result{}, ErrNoEdges
	}
	kappa := opts.Degeneracy
	if kappa <= 0 {
		kappa = g.Degeneracy()
		if kappa < 1 {
			kappa = 1
		}
	}
	cfg := cliqueConfig(opts, kappa)
	res, err := clique.Estimate(stream.FromGraphShuffled(g, cfg.Seed), cfg)
	if err != nil {
		return Result{}, fmt.Errorf("triangle: %w", err)
	}
	return Result{
		Estimate:        res.Estimate,
		Passes:          res.Passes,
		SpaceWords:      res.SpaceWords,
		Edges:           res.EdgesInStream,
		DegeneracyBound: kappa,
	}, nil
}
