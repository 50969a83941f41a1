package triangle

import (
	"math"
	"testing"
)

func completeEdges(n int) []Edge {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{U: u, V: v})
		}
	}
	return edges
}

func TestExactCliques(t *testing.T) {
	k5 := completeEdges(5)
	if ExactCliques(k5, 3) != 10 || ExactCliques(k5, 4) != 5 || ExactCliques(k5, 5) != 1 {
		t.Fatalf("K5 clique counts wrong: %d %d %d",
			ExactCliques(k5, 3), ExactCliques(k5, 4), ExactCliques(k5, 5))
	}
	if ExactCliques(Wheel(50), 4) != 0 {
		t.Error("wheel should have no 4-cliques")
	}
	if ExactCliques(Apollonian(30), 4) == 0 {
		t.Error("Apollonian graphs contain 4-cliques")
	}
}

func TestEstimateCliquesValidation(t *testing.T) {
	if _, err := EstimateCliques(nil, CliqueOptions{K: 4, CliqueGuess: 1}); err != ErrNoEdges {
		t.Errorf("expected ErrNoEdges, got %v", err)
	}
	if _, err := EstimateCliques(completeEdges(5), CliqueOptions{K: 4}); err == nil {
		t.Error("missing CliqueGuess should be rejected")
	}
	if _, err := EstimateCliques(completeEdges(5), CliqueOptions{K: 2, CliqueGuess: 1}); err == nil {
		t.Error("K=2 should be rejected")
	}
	// Inputs that canonicalize to nothing are as empty as nil.
	loops := []Edge{{3, 3}, {-1, 2}}
	if _, err := EstimateCliques(loops, CliqueOptions{K: 4, CliqueGuess: 1}); err != ErrNoEdges {
		t.Errorf("all-dropped input: expected ErrNoEdges, got %v", err)
	}
}

func TestEstimateCliquesAccuracy(t *testing.T) {
	edges := completeEdges(35)
	truth := float64(ExactCliques(edges, 4))
	var sum float64
	trials := 8
	for i := 0; i < trials; i++ {
		res, err := EstimateCliques(edges, CliqueOptions{
			K:           4,
			Degeneracy:  34,
			CliqueGuess: int64(truth),
			Seed:        uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes != 4 {
			t.Fatalf("passes = %d, want 4", res.Passes)
		}
		sum += res.Estimate
	}
	rel := math.Abs(sum/float64(trials)-truth) / truth
	if rel > 0.3 {
		t.Fatalf("4-clique relative error %.3f", rel)
	}
}

func TestEstimateCliquesDefaultsAndKappaComputation(t *testing.T) {
	edges := Apollonian(400)
	truth := ExactCliques(edges, 4)
	// Zero ε and multiplier select the defaults; out-of-range ones are errors.
	if _, err := EstimateCliques(edges, CliqueOptions{K: 4, CliqueGuess: truth, Epsilon: 7, SampleMultiplier: -2}); err == nil {
		t.Fatal("ε = 7 and multiplier -2 must be rejected")
	}
	res, err := EstimateCliques(edges, CliqueOptions{K: 4, CliqueGuess: truth})
	if err != nil {
		t.Fatal(err)
	}
	if res.DegeneracyBound != 3 {
		t.Fatalf("computed degeneracy bound = %d, want 3", res.DegeneracyBound)
	}
	if res.Estimate < 0 {
		t.Fatal("negative estimate")
	}
}
