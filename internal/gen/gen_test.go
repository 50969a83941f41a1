package gen

import (
	"testing"
	"testing/quick"

	"degentri/internal/graph"
)

func TestPath(t *testing.T) {
	g := Path(5)
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("path: %v", g)
	}
	if g.TriangleCount() != 0 || g.Degeneracy() != 1 {
		t.Fatal("path should be triangle free with degeneracy 1")
	}
	if Path(1).NumEdges() != 0 {
		t.Error("single-vertex path has no edges")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(3)
	if g.TriangleCount() != 1 {
		t.Error("C3 is a triangle")
	}
	g = Cycle(12)
	if g.NumEdges() != 12 || g.TriangleCount() != 0 || g.Degeneracy() != 2 {
		t.Fatalf("C12: m=%d T=%d κ=%d", g.NumEdges(), g.TriangleCount(), g.Degeneracy())
	}
	assertPanics(t, func() { Cycle(2) })
}

func TestStar(t *testing.T) {
	g := Star(100)
	if g.NumEdges() != 99 || g.MaxDegree() != 99 || g.Degeneracy() != 1 || g.TriangleCount() != 0 {
		t.Fatalf("star: %v κ=%d", g, g.Degeneracy())
	}
	assertPanics(t, func() { Star(1) })
}

func TestComplete(t *testing.T) {
	g := Complete(7)
	if g.NumEdges() != 21 || g.TriangleCount() != 35 || g.Degeneracy() != 6 {
		t.Fatalf("K7: m=%d T=%d κ=%d", g.NumEdges(), g.TriangleCount(), g.Degeneracy())
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 5)
	if g.NumEdges() != 15 || g.TriangleCount() != 0 || g.Degeneracy() != 3 {
		t.Fatalf("K3,5: m=%d T=%d κ=%d", g.NumEdges(), g.TriangleCount(), g.Degeneracy())
	}
	assertPanics(t, func() { CompleteBipartite(-1, 2) })
}

func TestWheelProperties(t *testing.T) {
	for _, n := range []int{5, 10, 101, 1000} {
		g := Wheel(n)
		if g.NumEdges() != 2*(n-1) {
			t.Errorf("wheel(%d): m=%d, want %d", n, g.NumEdges(), 2*(n-1))
		}
		// Every rim edge closes one triangle with the hub.
		if got := g.TriangleCount(); got != int64(n-1) {
			t.Errorf("wheel(%d): T=%d, want %d", n, got, n-1)
		}
		if k := g.Degeneracy(); k != 3 {
			t.Errorf("wheel(%d): κ=%d, want 3", n, k)
		}
	}
	// n=4 is K4.
	if Wheel(4).TriangleCount() != 4 {
		t.Error("wheel(4) should be K4 with 4 triangles")
	}
	assertPanics(t, func() { Wheel(3) })
}

func TestBookProperties(t *testing.T) {
	for _, pages := range []int{1, 2, 17, 500} {
		g := Book(pages)
		if g.NumVertices() != pages+2 || g.NumEdges() != 2*pages+1 {
			t.Fatalf("book(%d): %v", pages, g)
		}
		if g.TriangleCount() != int64(pages) {
			t.Errorf("book(%d): T=%d", pages, g.TriangleCount())
		}
		if g.Degeneracy() != 2 {
			t.Errorf("book(%d): κ=%d, want 2", pages, g.Degeneracy())
		}
		// The spine edge participates in every triangle.
		if g.TrianglesOfEdge(graph.NewEdge(0, 1)) != int64(pages) {
			t.Errorf("book(%d): spine edge triangle count %d", pages, g.TrianglesOfEdge(graph.NewEdge(0, 1)))
		}
	}
	assertPanics(t, func() { Book(0) })
}

func TestGrid(t *testing.T) {
	g := Grid(4, 6)
	wantM := 4*5 + 6*3 // horizontal + vertical
	if g.NumEdges() != wantM {
		t.Fatalf("grid edges = %d, want %d", g.NumEdges(), wantM)
	}
	if g.TriangleCount() != 0 || g.Degeneracy() != 2 {
		t.Error("grid should be triangle-free with degeneracy 2")
	}
	if Grid(1, 5).NumEdges() != 4 {
		t.Error("1xN grid is a path")
	}
	assertPanics(t, func() { Grid(0, 3) })
}

func TestTriangularGrid(t *testing.T) {
	rows, cols := 5, 7
	g := TriangularGrid(rows, cols)
	wantT := int64(2 * (rows - 1) * (cols - 1))
	if g.TriangleCount() != wantT {
		t.Fatalf("triangular grid T=%d, want %d", g.TriangleCount(), wantT)
	}
	if k := g.Degeneracy(); k > 5 {
		t.Errorf("triangular grid degeneracy %d exceeds planar bound 5", k)
	}
	assertPanics(t, func() { TriangularGrid(1, 5) })
}

func TestFriendship(t *testing.T) {
	g := Friendship(25)
	if g.NumVertices() != 51 || g.NumEdges() != 75 || g.TriangleCount() != 25 {
		t.Fatalf("friendship: %v T=%d", g, g.TriangleCount())
	}
	if g.Degeneracy() != 2 {
		t.Errorf("friendship degeneracy %d, want 2", g.Degeneracy())
	}
	assertPanics(t, func() { Friendship(0) })
}

func TestApollonian(t *testing.T) {
	for _, ins := range []int{0, 1, 5, 50, 200} {
		g := Apollonian(ins)
		if g.NumVertices() != 3+ins {
			t.Fatalf("apollonian(%d): n=%d", ins, g.NumVertices())
		}
		wantT := int64(1 + 3*ins)
		if g.TriangleCount() != wantT {
			t.Errorf("apollonian(%d): T=%d, want %d", ins, g.TriangleCount(), wantT)
		}
		wantK := 3
		if ins == 0 {
			wantK = 2
		}
		if g.Degeneracy() != wantK {
			t.Errorf("apollonian(%d): κ=%d, want %d", ins, g.Degeneracy(), wantK)
		}
	}
	assertPanics(t, func() { Apollonian(-1) })
}

func TestErdosRenyiGNP(t *testing.T) {
	g := ErdosRenyiGNP(200, 0.05, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected edges = 0.05 * C(200,2) = 995; allow wide tolerance.
	m := g.NumEdges()
	if m < 800 || m > 1200 {
		t.Errorf("G(200,0.05) produced %d edges, expected ~995", m)
	}
	// Determinism.
	g2 := ErdosRenyiGNP(200, 0.05, 7)
	if g2.NumEdges() != m {
		t.Error("same seed produced different graphs")
	}
	if ErdosRenyiGNP(100, 0, 1).NumEdges() != 0 {
		t.Error("p=0 should give empty graph")
	}
	if ErdosRenyiGNP(10, 1, 1).NumEdges() != 45 {
		t.Error("p=1 should give complete graph")
	}
	assertPanics(t, func() { ErdosRenyiGNP(10, 1.5, 1) })
}

func TestPairFromIndex(t *testing.T) {
	n := 6
	seen := make(map[[2]int]bool)
	total := n * (n - 1) / 2
	for idx := 0; idx < total; idx++ {
		u, v := pairFromIndex(int64(idx), n)
		if u < 0 || v <= u || v >= n {
			t.Fatalf("bad pair (%d,%d) for index %d", u, v, idx)
		}
		key := [2]int{u, v}
		if seen[key] {
			t.Fatalf("pair (%d,%d) repeated", u, v)
		}
		seen[key] = true
	}
	if len(seen) != total {
		t.Fatalf("enumerated %d pairs, want %d", len(seen), total)
	}
}

func TestErdosRenyiGNM(t *testing.T) {
	g := ErdosRenyiGNM(500, 2000, 3)
	if g.NumEdges() != 2000 {
		t.Fatalf("G(n,m) has %d edges, want 2000", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	assertPanics(t, func() { ErdosRenyiGNM(4, 100, 1) })
}

func TestBarabasiAlbert(t *testing.T) {
	n, k := 2000, 4
	g := BarabasiAlbert(n, k, 11)
	if g.NumVertices() != n {
		t.Fatalf("BA n=%d", g.NumVertices())
	}
	wantM := k*(k+1)/2 + (n-k-1)*k
	if g.NumEdges() != wantM {
		t.Fatalf("BA m=%d, want %d", g.NumEdges(), wantM)
	}
	if got := g.Degeneracy(); got != k {
		t.Fatalf("BA degeneracy %d, want %d", got, k)
	}
	if g.TriangleCount() == 0 {
		t.Error("preferential attachment should create triangles")
	}
	// Determinism.
	if BarabasiAlbert(n, k, 11).NumEdges() != g.NumEdges() {
		t.Error("same seed gave different graphs")
	}
	assertPanics(t, func() { BarabasiAlbert(3, 5, 1) })
}

func TestChungLu(t *testing.T) {
	n := 3000
	g := ChungLu(n, 8, 2.5, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := 2 * float64(g.NumEdges()) / float64(n)
	if avg < 3 || avg > 16 {
		t.Errorf("Chung–Lu average degree %.2f far from target 8", avg)
	}
	// Power-law graphs should have far smaller degeneracy than max degree.
	if g.Degeneracy() >= g.MaxDegree() && g.MaxDegree() > 10 {
		t.Errorf("degeneracy %d not below max degree %d", g.Degeneracy(), g.MaxDegree())
	}
	if g.TriangleCount() == 0 {
		t.Error("expected some triangles in a dense-core power-law graph")
	}
	assertPanics(t, func() { ChungLu(10, 2, 1.5, 1) })
}

func TestPlantedBook(t *testing.T) {
	g := PlantedBook(500, 1000, 100, 9)
	if g.TrianglesOfEdge(graph.NewEdge(0, 1)) < 100 {
		t.Errorf("planted spine has only %d triangles", g.TrianglesOfEdge(graph.NewEdge(0, 1)))
	}
	if g.TriangleCount() < 100 {
		t.Error("planted triangles missing")
	}
	assertPanics(t, func() { PlantedBook(10, 5, 20, 1) })
}

func TestStarPlusTriangles(t *testing.T) {
	g := StarPlusTriangles(1000, 50)
	if g.MaxDegree() != 1000 {
		t.Errorf("max degree %d", g.MaxDegree())
	}
	if g.Degeneracy() != 2 {
		t.Errorf("degeneracy %d, want 2", g.Degeneracy())
	}
	if g.TriangleCount() != 50 {
		t.Errorf("T=%d, want 50", g.TriangleCount())
	}
	assertPanics(t, func() { StarPlusTriangles(0, 1) })
}

// Property: all generators respect the Chiba–Nishizeki bounds d_E <= 2mκ and
// T <= 2mκ (Lemma 3.1, Corollary 3.2).
func TestGeneratorsChibaNishizekiProperty(t *testing.T) {
	f := func(seed uint64, raw uint8) bool {
		n := 20 + int(raw%80)
		graphs := []*graph.Graph{
			Wheel(n),
			Book(n),
			BarabasiAlbert(n+10, 3, seed),
			ErdosRenyiGNM(n, 2*n, seed),
			ChungLu(n+50, 5, 2.6, seed),
		}
		for _, g := range graphs {
			m := int64(g.NumEdges())
			k := int64(g.Degeneracy())
			if g.EdgeDegreeSum() > 2*m*k {
				return false
			}
			if g.TriangleCount() > 2*m*k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}
