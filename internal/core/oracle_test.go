package core

import (
	"testing"

	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

func TestGraphOracle(t *testing.T) {
	g := gen.Wheel(10)
	o := NewGraphOracle(g)
	if o.Degree(0) != 9 {
		t.Errorf("hub degree = %d", o.Degree(0))
	}
	if o.Degree(5) != 3 {
		t.Errorf("rim degree = %d", o.Degree(5))
	}
	if o.Degree(-1) != 0 || o.Degree(999) != 0 {
		t.Error("out-of-range degrees should be 0")
	}
	if o.Queries() != 4 {
		t.Errorf("query count = %d, want 4", o.Queries())
	}
}

func TestLowestDegreeEdgeDeterministic(t *testing.T) {
	g := gen.Book(5)
	o := NewGraphOracle(g)
	tri := graph.NewTriangle(0, 1, 2)
	e1 := lowestDegreeEdge(tri, o)
	e2 := lowestDegreeEdge(tri, o)
	if e1 != e2 {
		t.Fatal("assignment is not consistent")
	}
	// Edge (0,1) is the spine with endpoint degrees 6; both other edges have
	// min degree 2, so the lexicographically smaller, (0,2), must win.
	if e1 != graph.NewEdge(0, 2) {
		t.Fatalf("lowestDegreeEdge = %v, want (0,2)", e1)
	}
}

func TestIdealEstimatorValidation(t *testing.T) {
	g := gen.Wheel(10)
	cfg := DefaultConfig(0.2, 3, 9)
	if _, err := IdealEstimator(stream.FromGraph(g), NewGraphOracle(g), cfg, 0); err == nil {
		t.Error("k=0 should be rejected")
	}
	bad := cfg
	bad.Epsilon = 2
	if _, err := IdealEstimator(stream.FromGraph(g), NewGraphOracle(g), bad, 5); err == nil {
		t.Error("invalid config should be rejected")
	}
}

func TestIdealEstimatorThreePasses(t *testing.T) {
	g := gen.Wheel(100)
	cfg := DefaultConfig(0.2, 3, g.TriangleCount())
	res, err := IdealEstimator(stream.FromGraphShuffled(g, 1), NewGraphOracle(g), cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 3 {
		t.Fatalf("passes = %d, want 3", res.Passes)
	}
	if res.OracleQueries < int64(2*g.NumEdges()) {
		t.Fatalf("oracle queries = %d, want >= 2m = %d", res.OracleQueries, 2*g.NumEdges())
	}
	if res.EdgesInStream != g.NumEdges() {
		t.Fatalf("m = %d", res.EdgesInStream)
	}
}

func TestIdealEstimatorAccuracy(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"wheel":    gen.Wheel(1500),
		"book":     gen.Book(1500),
		"ba":       gen.BarabasiAlbert(1500, 3, 7),
		"friendly": gen.Friendship(700),
	}
	for name, g := range graphs {
		truth := float64(g.TriangleCount())
		var sum float64
		trials := 12
		for i := 0; i < trials; i++ {
			cfg := DefaultConfig(0.2, g.Degeneracy(), g.TriangleCount())
			cfg.Seed = uint64(100 + i)
			res, err := IdealEstimator(stream.FromGraphShuffled(g, uint64(i+1)), NewGraphOracle(g), cfg, 1000)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Estimate
		}
		rel := sampling.RelativeError(sum/float64(trials), truth)
		if rel > 0.2 {
			t.Errorf("%s: ideal estimator relative error %.3f > 0.2", name, rel)
		}
	}
}

func TestIdealEstimatorTriangleFree(t *testing.T) {
	g := gen.Grid(30, 30)
	cfg := DefaultConfig(0.2, 2, 1)
	res, err := IdealEstimator(stream.FromGraphShuffled(g, 3), NewGraphOracle(g), cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 || res.TrianglesFound != 0 {
		t.Fatalf("triangle-free estimate %v (found %d)", res.Estimate, res.TrianglesFound)
	}
}

func TestIdealEstimatorRuleNone(t *testing.T) {
	g := gen.Wheel(1000)
	truth := float64(g.TriangleCount())
	cfg := DefaultConfig(0.2, 3, g.TriangleCount())
	cfg.Rule = RuleNone
	var sum float64
	trials := 8
	for i := 0; i < trials; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := IdealEstimator(stream.FromGraphShuffled(g, uint64(i+5)), NewGraphOracle(g), cfg, 500)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Estimate
	}
	rel := sampling.RelativeError(sum/float64(trials), truth)
	if rel > 0.2 {
		t.Errorf("rule-none ideal estimator relative error %.3f", rel)
	}
}

// TestIdealEstimatorSelfLoops streams a 200-edge path with a loop at every
// even vertex: a loop adds no sampling weight and offers no neighbor, so no
// instance closes a degenerate wedge and the estimate is 0.
func TestIdealEstimatorSelfLoops(t *testing.T) {
	var edges []graph.Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	for i := 0; i <= 200; i += 2 {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i)})
	}
	b := graph.NewBuilder(0)
	for _, e := range edges {
		b.AddEdge(int(e.U), int(e.V))
	}
	oracle := NewGraphOracle(b.Build())
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig(0.2, 2, 1)
		cfg.Seed = seed
		res, err := IdealEstimator(stream.FromEdges(edges), oracle, cfg, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != 0 || res.TrianglesFound != 0 {
			t.Errorf("seed %d: estimate %v (found %d) on a triangle-free path with loops", seed, res.Estimate, res.TrianglesFound)
		}
	}
}

func TestIdealEstimatorEmptyStream(t *testing.T) {
	cfg := DefaultConfig(0.2, 1, 1)
	res, err := IdealEstimator(stream.FromEdges(nil), NewGraphOracle(graph.NewBuilder(0).Build()), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("estimate %v on empty stream", res.Estimate)
	}
}

func TestIdealEstimatorBookRobustness(t *testing.T) {
	// On the book graph the ideal estimator with the lowest-degree rule
	// assigns every triangle to a side edge (the spine has huge degree), so
	// the estimate should concentrate. This is the §1.2 motivation.
	g := gen.Book(2000)
	truth := float64(g.TriangleCount())
	var errs []float64
	for i := 0; i < 10; i++ {
		cfg := DefaultConfig(0.2, 2, g.TriangleCount())
		cfg.Seed = uint64(i * 31)
		res, err := IdealEstimator(stream.FromGraphShuffled(g, uint64(i+1)), NewGraphOracle(g), cfg, 400)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, sampling.RelativeError(res.Estimate, truth))
	}
	if med := sampling.Median(errs); med > 0.25 {
		t.Fatalf("median relative error %.3f on the book graph", med)
	}
}
