package clique

import (
	"math"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(4, 0.2, 3, 100)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{K: 2, Epsilon: 0.2, Kappa: 3, CliqueGuess: 10, CR: 1, CL: 1},
		{K: 9, Epsilon: 0.2, Kappa: 3, CliqueGuess: 10, CR: 1, CL: 1},
		{K: 4, Epsilon: 0, Kappa: 3, CliqueGuess: 10, CR: 1, CL: 1},
		{K: 4, Epsilon: 0.2, Kappa: 0, CliqueGuess: 10, CR: 1, CL: 1},
		{K: 4, Epsilon: 0.2, Kappa: 3, CliqueGuess: 0, CR: 1, CL: 1},
		{K: 4, Epsilon: 0.2, Kappa: 3, CliqueGuess: 10, CR: 0, CL: 1},
		{K: 4, Epsilon: math.NaN(), Kappa: 3, CliqueGuess: 10, CR: 1, CL: 1},
		{K: 4, Epsilon: 0.2, Kappa: 3, CliqueGuess: 10, CR: math.NaN(), CL: 1},
		{K: 4, Epsilon: 0.2, Kappa: 3, CliqueGuess: 10, CR: 1, CL: math.Inf(1)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestSampleSizeFormulas(t *testing.T) {
	cfg := DefaultConfig(4, 0.2, 2, 1000)
	cfg.CR, cfg.CL = 1, 1
	m := 10000
	// r = m·κ² / guess = 10000·4/1000 = 40.
	if got := cfg.sampleSizeR(m); got != 40 {
		t.Errorf("r = %d, want 40", got)
	}
	// ℓ = m·dR·κ/(r·guess) = 10000·200·2/(40·1000) = 100.
	if got := cfg.sampleSizeL(m, 40, 200); got != 100 {
		t.Errorf("ℓ = %d, want 100", got)
	}
	cfg.ROverride, cfg.LOverride = 7, 9
	if cfg.sampleSizeR(m) != 7 || cfg.sampleSizeL(m, 7, 10) != 9 {
		t.Error("overrides ignored")
	}
	if cfg.sampleSizeL(m, 7, 0) != 9 {
		t.Error("override should win even with dR=0")
	}
}

func TestEstimateInvalidAndEmpty(t *testing.T) {
	bad := DefaultConfig(2, 0.2, 1, 1)
	if _, err := Estimate(stream.FromEdges(nil), bad); err == nil {
		t.Fatal("expected validation error")
	}
	good := DefaultConfig(4, 0.2, 1, 1)
	res, err := Estimate(stream.FromEdges(nil), good)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatal("empty stream should estimate 0")
	}
}

func TestEstimateCliqueFreeGraph(t *testing.T) {
	// The wheel has triangles but no 4-cliques (for n > 4).
	g := gen.Wheel(500)
	cfg := DefaultConfig(4, 0.2, 3, 10)
	cfg.Seed = 3
	res, err := Estimate(stream.FromGraphShuffled(g, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 || res.CliquesFound != 0 {
		t.Fatalf("wheel 4-clique estimate %v (found %d)", res.Estimate, res.CliquesFound)
	}
	if res.Passes != 4 {
		t.Fatalf("passes = %d, want 4", res.Passes)
	}
}

// TestEstimateParallelEdgesAreNotCliques streams a wheel verbatim with every
// edge doubled and a loop at every vertex. Two draws can then be distinct
// offers of one vertex, whose pair check a loop would satisfy, so the
// estimate stays 0 only if such draws are refused as the same vertex.
func TestEstimateParallelEdgesAreNotCliques(t *testing.T) {
	g := gen.Wheel(500)
	var edges []graph.Edge
	for _, e := range g.Edges() {
		edges = append(edges, e, e)
	}
	for v := range g.NumVertices() {
		edges = append(edges, graph.NewEdge(v, v))
	}
	cfg := DefaultConfig(4, 0.2, 3, 10)
	cfg.Seed = 3
	res, err := Estimate(stream.FromEdges(edges), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 || res.CliquesFound != 0 {
		t.Fatalf("doubled wheel with loops: 4-clique estimate %v (found %d)", res.Estimate, res.CliquesFound)
	}
}

func relErrOverTrials(t *testing.T, g *graph.Graph, cfg Config, trials int, truth float64) float64 {
	t.Helper()
	var sum float64
	for i := 0; i < trials; i++ {
		cfg.Seed = uint64(101 + 997*i)
		res, err := Estimate(stream.FromGraphShuffled(g, uint64(i+1)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Estimate
	}
	return sampling.RelativeError(sum/float64(trials), truth)
}

func TestEstimateTrianglesMatchesK3(t *testing.T) {
	// With K=3 the estimator is the plain (no-assignment) triangle counter.
	g := gen.Wheel(1000)
	truth := float64(g.TriangleCount())
	cfg := DefaultConfig(3, 0.2, 3, g.TriangleCount())
	cfg.CR, cfg.CL = 8, 8
	rel := relErrOverTrials(t, g, cfg, 10, truth)
	if rel > 0.25 {
		t.Fatalf("K=3 relative error %.3f", rel)
	}
}

func TestEstimateFourCliquesCompleteGraph(t *testing.T) {
	g := gen.Complete(40)
	truth := float64(g.CliqueCount(4))
	cfg := DefaultConfig(4, 0.2, 39, g.CliqueCount(4))
	cfg.CR, cfg.CL = 4, 8
	rel := relErrOverTrials(t, g, cfg, 10, truth)
	if rel > 0.3 {
		t.Fatalf("K4 on K40 relative error %.3f", rel)
	}
}

func TestEstimateFourCliquesApollonian(t *testing.T) {
	g := gen.Apollonian(1500)
	truth := float64(g.CliqueCount(4))
	if truth == 0 {
		t.Fatal("Apollonian graphs should contain 4-cliques")
	}
	cfg := DefaultConfig(4, 0.2, 3, g.CliqueCount(4))
	cfg.CR, cfg.CL = 8, 12
	rel := relErrOverTrials(t, g, cfg, 12, truth)
	if rel > 0.35 {
		t.Fatalf("K4 on Apollonian relative error %.3f", rel)
	}
}

func TestEstimateFourCliquesHolmeKim(t *testing.T) {
	g := gen.HolmeKim(4000, 6, 0.8, 5)
	truth := float64(g.CliqueCount(4))
	if truth == 0 {
		t.Skip("no 4-cliques generated")
	}
	cfg := DefaultConfig(4, 0.2, 6, g.CliqueCount(4))
	cfg.CR, cfg.CL = 8, 12
	rel := relErrOverTrials(t, g, cfg, 12, truth)
	if rel > 0.4 {
		t.Fatalf("K4 on Holme–Kim relative error %.3f", rel)
	}
}

func TestEstimateFiveCliques(t *testing.T) {
	g := gen.Complete(25)
	truth := float64(g.CliqueCount(5))
	cfg := DefaultConfig(5, 0.2, 24, g.CliqueCount(5))
	cfg.CR, cfg.CL = 4, 12
	rel := relErrOverTrials(t, g, cfg, 8, truth)
	if rel > 0.35 {
		t.Fatalf("K5 on K25 relative error %.3f", rel)
	}
}

func TestEstimateDeterministicSeed(t *testing.T) {
	g := gen.Apollonian(300)
	cfg := DefaultConfig(4, 0.2, 3, g.CliqueCount(4))
	cfg.Seed = 7
	a, err := Estimate(stream.FromGraphShuffled(g, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(stream.FromGraphShuffled(g, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate {
		t.Fatal("same seed produced different estimates")
	}
}

func TestEstimateUnknownLengthStream(t *testing.T) {
	g := gen.Complete(20)
	src := &hiddenLen{inner: stream.FromGraphShuffled(g, 1)}
	cfg := DefaultConfig(4, 0.2, 19, g.CliqueCount(4))
	res, err := Estimate(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 5 {
		t.Fatalf("passes = %d, want 5 (counting pass + 4)", res.Passes)
	}
}

type hiddenLen struct{ inner stream.Stream }

func (h *hiddenLen) Reset() error              { return h.inner.Reset() }
func (h *hiddenLen) Next() (graph.Edge, error) { return h.inner.Next() }
func (h *hiddenLen) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	return h.inner.NextBatch(buf)
}
func (h *hiddenLen) Len() (int, bool) { return 0, false }

// TestEstimateWorkerCountInvariance checks the sharded-pass determinism
// contract: the Workers knob may change wall-clock but not a single bit of
// the Result.
func TestEstimateWorkerCountInvariance(t *testing.T) {
	g := gen.HolmeKim(2500, 5, 0.6, 21)
	cfg := DefaultConfig(4, 0.2, g.Degeneracy(), maxInt64(g.CliqueCount(4), 1))
	for _, seed := range []uint64{1, 99} {
		cfg.Seed = seed
		var base Result
		for i, workers := range []int{1, 2, 4, 8} {
			cfg.Workers = workers
			res, err := Estimate(stream.FromGraphShuffled(g, seed), cfg)
			if err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
			}
			if i == 0 {
				base = res
			} else if res != base {
				t.Errorf("seed=%d: workers=%d diverges from workers=1:\n  %+v\n  %+v",
					seed, workers, res, base)
			}
		}
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
