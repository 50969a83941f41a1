package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func completeGraph(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func cycleGraph(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

func starGraph(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

func wheelGraph(n int) *Graph {
	// Hub 0 connected to a cycle on 1..n-1.
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
		next := v + 1
		if next == n {
			next = 1
		}
		b.AddEdge(v, next)
	}
	return b.Build()
}

func TestDegeneracyKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", NewBuilder(4).Build(), 0},
		{"single edge", FromEdges(2, []Edge{{0, 1}}), 1},
		{"path", FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}), 1},
		{"cycle10", cycleGraph(10), 2},
		{"star50", starGraph(50), 1},
		{"K5", completeGraph(5), 4},
		{"K8", completeGraph(8), 7},
		{"wheel10", wheelGraph(10), 3},
		{"wheel100", wheelGraph(100), 3},
		{"triangle+tail", buildTriangleWithTail(), 2},
	}
	for _, c := range cases {
		if got := c.g.Degeneracy(); got != c.want {
			t.Errorf("%s: Degeneracy = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCoreNumbersCompleteGraph(t *testing.T) {
	g := completeGraph(6)
	cd := g.CoreDecomposition()
	for v := 0; v < 6; v++ {
		if cd.Core[v] != 5 {
			t.Errorf("Core[%d] = %d, want 5", v, cd.Core[v])
		}
	}
	if cd.Degeneracy != 5 {
		t.Errorf("Degeneracy = %d, want 5", cd.Degeneracy)
	}
}

func TestCoreNumbersMixed(t *testing.T) {
	// K4 (0..3) with a pendant path 3-4-5.
	b := NewBuilder(6)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	cd := g.CoreDecomposition()
	wantCore := []int{3, 3, 3, 3, 1, 1}
	for v, want := range wantCore {
		if cd.Core[v] != want {
			t.Errorf("Core[%d] = %d, want %d", v, cd.Core[v], want)
		}
	}
	if cd.Degeneracy != 3 {
		t.Errorf("Degeneracy = %d, want 3", cd.Degeneracy)
	}
}

func TestDegeneracyOrderInvariant(t *testing.T) {
	// In a degeneracy ordering, every vertex has at most κ neighbors later
	// in the ordering.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		g := randomGraph(n, 0.2+0.5*rng.Float64(), rng)
		cd := g.CoreDecomposition()
		for v := 0; v < g.NumVertices(); v++ {
			later := 0
			for _, w := range g.Neighbors(v) {
				if cd.Position[w] > cd.Position[v] {
					later++
				}
			}
			if later > cd.Degeneracy {
				t.Fatalf("vertex %d has %d later neighbors, degeneracy %d", v, later, cd.Degeneracy)
			}
		}
	}
}

func TestCoreDecompositionOrderAndPositionConsistent(t *testing.T) {
	g := wheelGraph(30)
	cd := g.CoreDecomposition()
	if len(cd.Order) != g.NumVertices() {
		t.Fatalf("Order has %d entries, want %d", len(cd.Order), g.NumVertices())
	}
	seen := make([]bool, g.NumVertices())
	for i, v := range cd.Order {
		if seen[v] {
			t.Fatalf("vertex %d appears twice in Order", v)
		}
		seen[v] = true
		if cd.Position[v] != i {
			t.Fatalf("Position[%d] = %d, want %d", v, cd.Position[v], i)
		}
	}
}

func TestDegeneracyOrientationOutDegreeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(40)
		g := randomGraph(n, 0.25, rng)
		out, cd := g.DegeneracyOrientation()
		total := 0
		for v := range out {
			if len(out[v]) > cd.Degeneracy {
				t.Fatalf("out-degree %d exceeds degeneracy %d", len(out[v]), cd.Degeneracy)
			}
			total += len(out[v])
		}
		if total != g.NumEdges() {
			t.Fatalf("orientation has %d arcs, want %d", total, g.NumEdges())
		}
	}
}

func TestDegeneracyMonotoneUnderSubgraphs(t *testing.T) {
	// κ(G') ≤ κ(G) for induced subgraphs: used by the heavy-triangle bound
	// (Lemma 5.12). Check on random graphs.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(20)
		g := randomGraph(n, 0.4, rng)
		keep := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.6 {
				keep = append(keep, v)
			}
		}
		if len(keep) == 0 {
			continue
		}
		sub, _ := g.InducedSubgraph(keep)
		if sub.Degeneracy() > g.Degeneracy() {
			t.Fatalf("induced subgraph degeneracy %d > graph degeneracy %d", sub.Degeneracy(), g.Degeneracy())
		}
	}
}

func TestArboricityBounds(t *testing.T) {
	g := completeGraph(9)
	lo, hi := g.ArboricityLowerBound(), g.ArboricityUpperBound()
	if lo > hi {
		t.Fatalf("lower bound %d exceeds upper bound %d", lo, hi)
	}
	// K9: arboricity = ceil(36/8) = 5, degeneracy = 8.
	if lo != 5 {
		t.Errorf("ArboricityLowerBound(K9) = %d, want 5", lo)
	}
	if hi != 8 {
		t.Errorf("ArboricityUpperBound(K9) = %d, want 8", hi)
	}
	if NewBuilder(1).Build().ArboricityLowerBound() != 0 {
		t.Error("trivial graph should have arboricity lower bound 0")
	}
}

func TestChibaNishizekiLemma(t *testing.T) {
	// Lemma 3.1: d_E <= 2mκ, and Corollary 3.2: T <= 2mκ/3... the paper
	// states T <= 2mκ; check both forms on assorted graphs.
	graphs := map[string]*Graph{
		"K10":      completeGraph(10),
		"wheel200": wheelGraph(200),
		"cycle50":  cycleGraph(50),
		"star100":  starGraph(100),
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		graphs["rand"+string(rune('A'+i))] = randomGraph(30+rng.Intn(30), 0.3, rng)
	}
	for name, g := range graphs {
		m := int64(g.NumEdges())
		k := int64(g.Degeneracy())
		if de := g.EdgeDegreeSum(); de > 2*m*k {
			t.Errorf("%s: d_E = %d exceeds 2mκ = %d", name, de, 2*m*k)
		}
		if tc := g.TriangleCount(); tc > 2*m*k {
			t.Errorf("%s: T = %d exceeds 2mκ = %d", name, tc, 2*m*k)
		}
	}
}

// Property test: degeneracy is at least m/n (average degree / 2) and at most
// the maximum degree.
func TestDegeneracyBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(25)
		g := randomGraph(n, r.Float64(), r)
		k := g.Degeneracy()
		if k > g.MaxDegree() {
			return false
		}
		if g.NumEdges() > 0 && k < 1 {
			return false
		}
		// κ ≥ ⌈m/(n-1)⌉ is the arboricity lower bound.
		return k >= g.ArboricityLowerBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
