package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTriangleCountKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int64
	}{
		{"empty", NewBuilder(5).Build(), 0},
		{"single triangle", FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}}), 1},
		{"triangle+tail", buildTriangleWithTail(), 1},
		{"K4", completeGraph(4), 4},
		{"K5", completeGraph(5), 10},
		{"K10", completeGraph(10), 120},
		{"cycle10", cycleGraph(10), 0},
		{"star20", starGraph(20), 0},
		{"wheel10", wheelGraph(10), 9},
		{"wheel101", wheelGraph(101), 100},
	}
	for _, c := range cases {
		if got := c.g.TriangleCount(); got != c.want {
			t.Errorf("%s: TriangleCount = %d, want %d", c.name, got, c.want)
		}
		if got := c.g.TriangleCountBrute(); got != c.want {
			t.Errorf("%s: TriangleCountBrute = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTriangleCountMatchesBruteOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(25)
		g := randomGraph(n, 0.15+0.6*rng.Float64(), rng)
		fast := g.TriangleCount()
		brute := g.TriangleCountBrute()
		if fast != brute {
			t.Fatalf("trial %d: fast=%d brute=%d for %v", trial, fast, brute, g)
		}
	}
}

func TestEdgeTriangleCountsSumTo3T(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(30)
		g := randomGraph(n, 0.3, rng)
		counts := g.EdgeTriangleCounts()
		var sum int64
		for _, c := range counts {
			sum += c
		}
		if sum != 3*g.TriangleCount() {
			t.Fatalf("Σ t_e = %d, want 3T = %d", sum, 3*g.TriangleCount())
		}
	}
}

func TestEdgeTriangleCountMap(t *testing.T) {
	g := completeGraph(5)
	m := g.EdgeTriangleCountMap()
	if len(m) != g.NumEdges() {
		t.Fatalf("map has %d entries, want %d", len(m), g.NumEdges())
	}
	for e, c := range m {
		if c != 3 {
			t.Errorf("t_%v = %d, want 3 in K5", e, c)
		}
	}
}

func TestTrianglesOfEdge(t *testing.T) {
	g := wheelGraph(10)
	// A spoke edge (0, v) for v on the rim is in exactly 2 triangles.
	if got := g.TrianglesOfEdge(NewEdge(0, 3)); got != 2 {
		t.Errorf("spoke edge triangles = %d, want 2", got)
	}
	// A rim edge is in exactly 1 triangle.
	if got := g.TrianglesOfEdge(NewEdge(3, 4)); got != 1 {
		t.Errorf("rim edge triangles = %d, want 1", got)
	}
	if got := g.TrianglesOfEdge(NewEdge(3, 7)); got != 0 {
		t.Errorf("non-edge triangles = %d, want 0", got)
	}
}

func TestListTriangles(t *testing.T) {
	g := completeGraph(5)
	tris := g.ListTriangles()
	if int64(len(tris)) != g.TriangleCount() {
		t.Fatalf("ListTriangles returned %d, want %d", len(tris), g.TriangleCount())
	}
	seen := make(map[Triangle]bool)
	for _, tr := range tris {
		if tr.A >= tr.B || tr.B >= tr.C {
			t.Errorf("triangle %v not sorted", tr)
		}
		if seen[tr] {
			t.Errorf("triangle %v listed twice", tr)
		}
		seen[tr] = true
		if !g.HasEdge(tr.A, tr.B) || !g.HasEdge(tr.A, tr.C) || !g.HasEdge(tr.B, tr.C) {
			t.Errorf("listed non-triangle %v", tr)
		}
	}
}

func TestListTrianglesMatchesCountOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(4+rng.Intn(25), 0.4, rng)
		if int64(len(g.ListTriangles())) != g.TriangleCount() {
			t.Fatalf("list/count mismatch on trial %d", trial)
		}
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	g := completeGraph(4)
	// K4: T=4, W=12, coefficient = 1.
	if got := g.GlobalClusteringCoefficient(); got != 1 {
		t.Errorf("clustering(K4) = %v, want 1", got)
	}
	if got := starGraph(10).GlobalClusteringCoefficient(); got != 0 {
		t.Errorf("clustering(star) = %v, want 0", got)
	}
}

func TestSortedIntersectionSize(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{[]int{1, 2, 3}, nil, 0},
		{[]int{1, 2, 3}, []int{3, 4, 5}, 1},
		{[]int{1, 2, 3}, []int{1, 2, 3}, 3},
		{[]int{1, 3, 5, 7}, []int{2, 3, 6, 7, 8}, 2},
	}
	for _, c := range cases {
		if got := sortedIntersectionSize(c.a, c.b); got != c.want {
			t.Errorf("intersection(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: triangle count of the complete graph K_n is C(n,3).
func TestTriangleCountCompleteGraphProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%12) + 3
		want := int64(n) * int64(n-1) * int64(n-2) / 6
		return completeGraph(n).TriangleCount() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-edge triangle counts are consistent with TrianglesOfEdge.
func TestEdgeTriangleCountsConsistentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(5+rng.Intn(20), 0.35, rng)
		counts := g.EdgeTriangleCounts()
		for i, e := range g.Edges() {
			if counts[i] != g.TrianglesOfEdge(e) {
				t.Fatalf("edge %v: %d vs %d", e, counts[i], g.TrianglesOfEdge(e))
			}
		}
	}
}

func BenchmarkTriangleCountWheel(b *testing.B) {
	g := wheelGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.TriangleCount() != 9999 {
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkCoreDecomposition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(2000, 0.01, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CoreDecomposition()
	}
}
