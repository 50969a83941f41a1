package baseline

import (
	"testing"

	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

func TestExact(t *testing.T) {
	cases := []*graph.Graph{
		gen.Wheel(100),
		gen.Book(50),
		gen.Complete(12),
		gen.Grid(10, 10),
	}
	for _, g := range cases {
		res, err := Exact(stream.FromGraphShuffled(g, 3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != float64(g.TriangleCount()) {
			t.Errorf("exact estimate %v, want %d", res.Estimate, g.TriangleCount())
		}
		if res.Passes != 1 {
			t.Errorf("exact passes = %d, want 1", res.Passes)
		}
		if res.SpaceWords < int64(2*g.NumEdges()) {
			t.Errorf("exact space %d should be at least 2m=%d", res.SpaceWords, 2*g.NumEdges())
		}
	}
}

func TestDoulionValidation(t *testing.T) {
	g := gen.Wheel(20)
	for _, p := range []float64{0, -0.5, 1.5} {
		if _, err := Doulion(stream.FromGraph(g), DoulionConfig{P: p}); err == nil {
			t.Errorf("p=%v should be rejected", p)
		}
	}
}

func TestDoulionFullRetentionIsExact(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 1)
	res, err := Doulion(stream.FromGraphShuffled(g, 2), DoulionConfig{P: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != float64(g.TriangleCount()) {
		t.Fatalf("p=1 estimate %v, want %d", res.Estimate, g.TriangleCount())
	}
	if res.Passes != 1 {
		t.Fatalf("doulion passes = %d, want 1", res.Passes)
	}
}

func TestDoulionAccuracy(t *testing.T) {
	g := gen.Complete(80) // dense: sparsification works well here
	truth := float64(g.TriangleCount())
	var sum float64
	trials := 10
	for i := 0; i < trials; i++ {
		res, err := Doulion(stream.FromGraphShuffled(g, uint64(i+1)), DoulionConfig{P: 0.4, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Estimate
	}
	rel := sampling.RelativeError(sum/float64(trials), truth)
	if rel > 0.2 {
		t.Fatalf("doulion relative error %.3f", rel)
	}
}

func TestDoulionSpaceShrinksWithP(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 4, 9)
	resLow, err := Doulion(stream.FromGraphShuffled(g, 1), DoulionConfig{P: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resHigh, err := Doulion(stream.FromGraphShuffled(g, 1), DoulionConfig{P: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resLow.SpaceWords >= resHigh.SpaceWords {
		t.Fatalf("space did not shrink with p: %d vs %d", resLow.SpaceWords, resHigh.SpaceWords)
	}
}

func TestNeighborSamplingValidation(t *testing.T) {
	g := gen.Wheel(20)
	if _, err := NeighborSampling(stream.FromGraph(g), NeighborSamplingConfig{Estimators: 0}); err == nil {
		t.Error("0 estimators should be rejected")
	}
}

func TestNeighborSamplingOnePass(t *testing.T) {
	g := gen.Wheel(200)
	res, err := NeighborSampling(stream.FromGraphShuffled(g, 1), NeighborSamplingConfig{Estimators: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Fatalf("passes = %d, want 1", res.Passes)
	}
}

func TestNeighborSamplingTriangleFree(t *testing.T) {
	g := gen.Grid(20, 20)
	res, err := NeighborSampling(stream.FromGraphShuffled(g, 1), NeighborSamplingConfig{Estimators: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("triangle-free estimate %v", res.Estimate)
	}
}

func TestNeighborSamplingAccuracy(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"wheel":  gen.Wheel(800),
		"K40":    gen.Complete(40),
		"ba":     gen.BarabasiAlbert(800, 4, 3),
		"apollo": gen.Apollonian(500),
	}
	for name, g := range graphs {
		truth := float64(g.TriangleCount())
		var sum float64
		trials := 8
		for i := 0; i < trials; i++ {
			res, err := NeighborSampling(stream.FromGraphShuffled(g, uint64(i+1)),
				NeighborSamplingConfig{Estimators: 3000, Seed: uint64(71 * (i + 1))})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Estimate
		}
		rel := sampling.RelativeError(sum/float64(trials), truth)
		if rel > 0.25 {
			t.Errorf("%s: neighbor sampling relative error %.3f", name, rel)
		}
	}
}

func TestHeavyLightValidation(t *testing.T) {
	g := gen.Wheel(20)
	if _, err := HeavyLight(stream.FromGraph(g), HeavyLightConfig{SampledEdges: 0}); err == nil {
		t.Error("0 samples should be rejected")
	}
}

func TestHeavyLightEmptyAndTriangleFree(t *testing.T) {
	res, err := HeavyLight(stream.FromEdges(nil), HeavyLightConfig{SampledEdges: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("empty stream estimate %v", res.Estimate)
	}
	g := gen.Grid(15, 15)
	res, err = HeavyLight(stream.FromGraphShuffled(g, 1), HeavyLightConfig{SampledEdges: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("triangle-free estimate %v", res.Estimate)
	}
}

// TestHeavyLightSelfLoops streams a 200-edge path with a loop at every even
// vertex: a loop adds no degree, has no wedge when sampled and offers no
// neighbor, so the estimate is 0.
func TestHeavyLightSelfLoops(t *testing.T) {
	var edges []graph.Edge
	for i := 0; i < 200; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	for i := 0; i <= 200; i += 2 {
		edges = append(edges, graph.Edge{U: i, V: i})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := HeavyLight(stream.FromEdges(edges), HeavyLightConfig{SampledEdges: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != 0 || res.TrianglesFound != 0 {
			t.Errorf("seed %d: estimate %v (found %d) on a triangle-free path with loops", seed, res.Estimate, res.TrianglesFound)
		}
	}
}

func TestHeavyLightFourPasses(t *testing.T) {
	g := gen.Wheel(300)
	res, err := HeavyLight(stream.FromGraphShuffled(g, 1), HeavyLightConfig{SampledEdges: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 4 {
		t.Fatalf("passes = %d, want 4", res.Passes)
	}
}

func TestHeavyLightAccuracy(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"wheel": gen.Wheel(1200),
		"book":  gen.Book(1200),
		"ba":    gen.BarabasiAlbert(1200, 4, 5),
		"K50":   gen.Complete(50),
	}
	for name, g := range graphs {
		truth := float64(g.TriangleCount())
		var sum float64
		trials := 8
		for i := 0; i < trials; i++ {
			res, err := HeavyLight(stream.FromGraphShuffled(g, uint64(i+1)),
				HeavyLightConfig{SampledEdges: 1500, Seed: uint64(13 * (i + 1))})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Estimate
		}
		rel := sampling.RelativeError(sum/float64(trials), truth)
		if rel > 0.25 {
			t.Errorf("%s: heavy/light relative error %.3f", name, rel)
		}
	}
}

func TestHeavyLightDenseGraphUsesExactHeavyPart(t *testing.T) {
	// In K30 every vertex is heavy (degree 29 ≥ √(2m) ≈ 29.5 is false...
	// use a lower threshold override to force the heavy path).
	g := gen.Complete(30)
	res, err := HeavyLight(stream.FromGraphShuffled(g, 1),
		HeavyLightConfig{SampledEdges: 10, DegreeThreshold: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != float64(g.TriangleCount()) {
		t.Fatalf("all-heavy graph should be exact: %v vs %d", res.Estimate, g.TriangleCount())
	}
}

func TestMinDegreeEdge(t *testing.T) {
	deg := map[graph.Edge]int{
		graph.NewEdge(1, 2): 5,
		graph.NewEdge(1, 3): 2,
		graph.NewEdge(2, 3): 2,
	}
	f := func(e graph.Edge) int { return deg[e.Normalize()] }
	tri := graph.NewTriangle(1, 2, 3)
	if got := minDegreeEdge(tri, f); got != graph.NewEdge(1, 3) {
		t.Errorf("minDegreeEdge = %v, want (1,3) (lexicographic tie-break)", got)
	}
}

func TestBaselineSpaceOrdering(t *testing.T) {
	// On a moderately sized graph: exact storage should dominate the
	// sketching baselines run at modest budgets.
	g := gen.BarabasiAlbert(3000, 4, 21)
	s := func() stream.Stream { return stream.FromGraphShuffled(g, 4) }
	exact, err := Exact(s())
	if err != nil {
		t.Fatal(err)
	}
	dl, err := Doulion(s(), DoulionConfig{P: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NeighborSampling(s(), NeighborSamplingConfig{Estimators: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dl.SpaceWords >= exact.SpaceWords {
		t.Errorf("doulion space %d should be below exact %d", dl.SpaceWords, exact.SpaceWords)
	}
	if ns.SpaceWords >= exact.SpaceWords {
		t.Errorf("neighbor sampling space %d should be below exact %d", ns.SpaceWords, exact.SpaceWords)
	}
}

// TestHeavyLightSparseVertexIDs exercises the out-of-range degree table: a
// triangle-rich graphlet whose vertex IDs all exceed the dense-slice budget
// (2^23), with enough occurrences to force at least one pending-buffer merge
// path. The exact count must still come out right.
func TestHeavyLightSparseVertexIDs(t *testing.T) {
	base := 1 << 24
	var edges []graph.Edge
	// 40 triangles sharing the hub base+0 plus a chain, all at huge IDs.
	for i := 1; i <= 40; i++ {
		a, b := base+2*i, base+2*i+1
		edges = append(edges, graph.Edge{U: base, V: a}, graph.Edge{U: base, V: b}, graph.Edge{U: a, V: b})
	}
	// A triangle-free star with enough endpoints to overflow the pending
	// buffer mid-stream, so the sorted-merge path (non-empty existing table)
	// runs, not just the final flush.
	hub := base + 1<<20
	for i := 1; i <= 40000; i++ {
		edges = append(edges, graph.Edge{U: hub, V: hub + i})
	}
	src := stream.FromEdges(edges)
	res, err := HeavyLight(src, HeavyLightConfig{SampledEdges: len(edges), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrianglesFound == 0 {
		t.Fatal("no triangles discovered on the sparse-ID workload")
	}
	if res.Estimate < 20 || res.Estimate > 80 {
		t.Fatalf("estimate %.1f far from the 40 true triangles", res.Estimate)
	}
}
