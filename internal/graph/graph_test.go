package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// buildTriangleWithTail returns the 4-vertex graph 0-1-2 triangle plus edge 2-3.
func buildTriangleWithTail() *Graph {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	return b.Build()
}

// randomGraph returns an Erdős–Rényi-ish random graph for property tests.
func randomGraph(n int, p float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestBuilderDropsLoopsAndDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(2, 2)
	b.AddEdge(0, 1)
	if got := b.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want 1", got)
	}
	g := b.Build()
	if g.NumEdges() != 1 || g.NumVertices() != 3 {
		t.Fatalf("got %v, want n=3 m=1", g)
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	if !g.HasEdge(5, 9) || !g.HasEdge(9, 5) {
		t.Fatal("edge (5,9) missing")
	}
}

func TestBuilderPanicsOnNegativeVertex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(1).AddEdge(-1, 2)
}

func TestBuilderPanicsOnIDAboveMaxVertexID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(1).AddEdge(0, MaxVertexID+1)
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(0, []Edge{{0, 1}, {1, 2}, {2, 0}})
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
	if g.TriangleCount() != 1 {
		t.Fatalf("TriangleCount = %d, want 1", g.TriangleCount())
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := buildTriangleWithTail()
	wantDeg := []int{2, 2, 3, 1}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	degs := g.Degrees()
	for v, want := range wantDeg {
		if degs[v] != want {
			t.Errorf("Degrees()[%d] = %d, want %d", v, degs[v], want)
		}
	}
	nb := g.Neighbors(2)
	want := []int{0, 1, 3}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := buildTriangleWithTail()
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, true}, {2, 3, true},
		{0, 3, false}, {1, 3, false}, {0, 0, false}, {-1, 2, false}, {2, 99, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesCanonicalOrder(t *testing.T) {
	g := buildTriangleWithTail()
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("len(Edges) = %d, want 4", len(edges))
	}
	if !sort.SliceIsSorted(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	}) {
		t.Errorf("edges not in canonical order: %v", edges)
	}
	for i, e := range edges {
		if g.Edge(i) != e {
			t.Errorf("Edge(%d) = %v, want %v", i, g.Edge(i), e)
		}
		if e.U >= e.V {
			t.Errorf("edge %v not normalized", e)
		}
	}
}

func TestEdgeDegreeAndLightEndpoint(t *testing.T) {
	g := buildTriangleWithTail()
	if got := g.EdgeDegree(NewEdge(2, 3)); got != 1 {
		t.Errorf("EdgeDegree(2,3) = %d, want 1", got)
	}
	if got := g.EdgeDegree(NewEdge(0, 2)); got != 2 {
		t.Errorf("EdgeDegree(0,2) = %d, want 2", got)
	}
	// A tie in degrees: either endpoint is the light one.
	if got := g.EdgeDegree(NewEdge(0, 1)); got != 2 {
		t.Errorf("EdgeDegree(0,1) = %d, want 2", got)
	}
}

func TestEdgeDegreePanicsOnNonEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	buildTriangleWithTail().EdgeDegree(NewEdge(0, 3))
}

func TestEdgeDegreeSum(t *testing.T) {
	g := buildTriangleWithTail()
	// Edges (0,1):min(2,2)=2, (0,2):2, (1,2):2, (2,3):1 -> 7.
	if got := g.EdgeDegreeSum(); got != 7 {
		t.Errorf("EdgeDegreeSum = %d, want 7", got)
	}
}

func TestWedges(t *testing.T) {
	g := buildTriangleWithTail()
	// deg: 2,2,3,1 -> wedges = 1+1+3+0 = 5.
	if got := g.Wedges(); got != 5 {
		t.Errorf("Wedges = %d, want 5", got)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildTriangleWithTail()
	sub, orig := g.InducedSubgraph([]int{0, 1, 2, 2})
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced subgraph %v, want triangle", sub)
	}
	if len(orig) != 3 {
		t.Fatalf("orig mapping %v", orig)
	}
	if sub.TriangleCount() != 1 {
		t.Errorf("induced triangle count = %d, want 1", sub.TriangleCount())
	}
	sub2, _ := g.InducedSubgraph([]int{0, 3})
	if sub2.NumEdges() != 0 {
		t.Errorf("induced on {0,3} should have no edges, got %d", sub2.NumEdges())
	}
}

func TestValidate(t *testing.T) {
	g := buildTriangleWithTail()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	empty := NewBuilder(0).Build()
	if err := empty.Validate(); err != nil {
		t.Fatalf("Validate(empty): %v", err)
	}
}

func TestNeighborsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	buildTriangleWithTail().Neighbors(99)
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(5).Build()
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got %v", g)
	}
	if g.TriangleCount() != 0 || g.MaxDegree() != 0 || g.EdgeDegreeSum() != 0 {
		t.Error("empty graph should have zero counts")
	}
	if g.GlobalClusteringCoefficient() != 0 {
		t.Error("clustering coefficient of empty graph should be 0")
	}
}

func TestGraphStringer(t *testing.T) {
	got := buildTriangleWithTail().String()
	if got != "Graph(n=4, m=4)" {
		t.Errorf("String = %q", got)
	}
}

// Property: for random graphs, every edge in Edges() satisfies HasEdge, and
// degree sums equal 2m.
func TestGraphConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := randomGraph(n, 0.3, r)
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		degSum := 0
		for v := 0; v < g.NumVertices(); v++ {
			degSum += g.Degree(v)
		}
		return degSum == 2*g.NumEdges()
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
