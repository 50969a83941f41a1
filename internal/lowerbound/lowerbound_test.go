package lowerbound

import (
	"testing"

	"degentri/internal/core"
)

func TestNewDisjointnessValidation(t *testing.T) {
	if _, err := NewDisjointness(0, 1, false, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewDisjointness(10, 0, false, 1); err == nil {
		t.Error("ones=0 should fail")
	}
	if _, err := NewDisjointness(10, 6, false, 1); err == nil {
		t.Error("disjoint with 2*6 > 10 should fail")
	}
	if _, err := NewDisjointness(5, 6, true, 1); err == nil {
		t.Error("more ones than bits should fail")
	}
}

func TestNewDisjointnessYes(t *testing.T) {
	d, err := NewDisjointness(30, 10, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Intersects() || d.Intersections() != 0 {
		t.Fatal("YES instance intersects")
	}
	if countOnes(d.X) != 10 || countOnes(d.Y) != 10 {
		t.Fatalf("ones: %d, %d", countOnes(d.X), countOnes(d.Y))
	}
}

func TestNewDisjointnessNo(t *testing.T) {
	d, err := NewDisjointness(30, 10, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Intersects() {
		t.Fatal("NO instance does not intersect")
	}
	if d.Intersections() != 1 {
		t.Fatalf("intersections = %d, want exactly 1", d.Intersections())
	}
	if countOnes(d.X) != 10 || countOnes(d.Y) != 10 {
		t.Fatalf("ones: %d, %d", countOnes(d.X), countOnes(d.Y))
	}
}

func countOnes(bits []bool) int {
	c := 0
	for _, b := range bits {
		if b {
			c++
		}
	}
	return c
}

func TestBuildInstanceValidation(t *testing.T) {
	d, _ := NewDisjointness(10, 3, false, 1)
	if _, err := BuildInstance(d, 0, 2); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := BuildInstance(d, 2, 0); err == nil {
		t.Error("q=0 should fail")
	}
}

func TestInstanceStructureYes(t *testing.T) {
	// YES instance: triangle free, degeneracy exactly p.
	for _, p := range []int{2, 4, 8} {
		d, err := NewDisjointness(12, 4, false, uint64(p))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := BuildInstance(d, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		g := inst.Graph
		if g.TriangleCount() != 0 {
			t.Errorf("p=%d: YES instance has %d triangles", p, g.TriangleCount())
		}
		if inst.ExpectedTriangles() != 0 {
			t.Errorf("p=%d: expected triangles should be 0", p)
		}
		if got := g.Degeneracy(); got != p {
			t.Errorf("p=%d: degeneracy = %d, want %d", p, got, p)
		}
		if got := inst.DegeneracyUpperBound(); got != p {
			t.Errorf("p=%d: claimed bound %d", p, got)
		}
		if g.NumEdges() != inst.ExpectedEdges() {
			t.Errorf("p=%d: m=%d want %d", p, g.NumEdges(), inst.ExpectedEdges())
		}
		if g.NumVertices() != 2*p+12*3 {
			t.Errorf("p=%d: n=%d", p, g.NumVertices())
		}
	}
}

func TestInstanceStructureNo(t *testing.T) {
	// NO instance: T = p²·q·(#intersections), degeneracy in [p, 2p].
	for _, pq := range [][2]int{{2, 2}, {4, 3}, {6, 5}} {
		p, q := pq[0], pq[1]
		d, err := NewDisjointness(12, 4, true, uint64(7*p+q))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := BuildInstance(d, p, q)
		if err != nil {
			t.Fatal(err)
		}
		g := inst.Graph
		if g.TriangleCount() != inst.ExpectedTriangles() {
			t.Errorf("p=%d q=%d: T=%d, want %d", p, q, g.TriangleCount(), inst.ExpectedTriangles())
		}
		if inst.ExpectedTriangles() != int64(p*p*q) {
			t.Errorf("expected triangles %d, want %d", inst.ExpectedTriangles(), p*p*q)
		}
		k := g.Degeneracy()
		if k < p || k > 2*p {
			t.Errorf("p=%d q=%d: degeneracy %d outside [p, 2p]", p, q, k)
		}
		if k > inst.DegeneracyUpperBound() {
			t.Errorf("degeneracy %d exceeds claimed bound %d", k, inst.DegeneracyUpperBound())
		}
		if g.NumEdges() != inst.ExpectedEdges() {
			t.Errorf("m=%d want %d", g.NumEdges(), inst.ExpectedEdges())
		}
	}
}

func TestInstanceStreams(t *testing.T) {
	d, _ := NewDisjointness(8, 3, true, 5)
	inst, err := BuildInstance(d, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.Stream()
	if m, ok := s.Len(); !ok || m != len(inst.FixedEdges)+len(inst.AliceEdges)+len(inst.BobEdges) {
		t.Fatalf("stream length %d, ok=%v", m, ok)
	}
	sh := inst.ShuffledStream(1)
	if m, ok := sh.Len(); !ok || m != inst.Graph.NumEdges() {
		t.Fatalf("shuffled stream length %d", m)
	}
}

// TestDetectTrianglesSeparatesInstances runs the detection protocol at 24
// fixed seeds. Detection is a constant-probability guarantee, so a NO
// instance may be missed now and then (about 3% of seeds at these sample
// sizes); it must be detected at 20 or more of the 24 seeds, and a YES
// instance, which has no triangles, at none.
func TestDetectTrianglesSeparatesInstances(t *testing.T) {
	p, q := 6, 4
	yesD, _ := NewDisjointness(20, 8, false, 2)
	noD, _ := NewDisjointness(20, 8, true, 3)
	yes, err := BuildInstance(yesD, p, q)
	if err != nil {
		t.Fatal(err)
	}
	no, err := BuildInstance(noD, p, q)
	if err != nil {
		t.Fatal(err)
	}

	const seeds, minDetected = 24, 20
	detected := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg := core.DefaultConfig(0.3, 2*p, int64(p*p*q))
		cfg.CR, cfg.CL, cfg.CS = 16, 16, 4
		cfg.Seed = seed

		noRes, err := DetectTriangles(no, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if noRes.Detected {
			detected++
		} else {
			t.Logf("seed %d: NO instance not detected (estimate %.1f, want >= %d)", seed, noRes.Estimate, p*p*q/2)
		}
		if noRes.CommunicationBits <= 0 {
			t.Error("communication accounting missing")
		}
		yesRes, err := DetectTriangles(yes, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if yesRes.Detected {
			t.Errorf("seed %d: YES instance falsely detected (estimate %.1f)", seed, yesRes.Estimate)
		}
	}
	if detected < minDetected {
		t.Fatalf("NO instance detected at %d of %d seeds, want at least %d", detected, seeds, minDetected)
	}
}

func TestSolveDisjointness(t *testing.T) {
	cfg := core.DefaultConfig(0.3, 12, 144)
	cfg.CR, cfg.CL, cfg.CS = 16, 16, 4
	d, _ := NewDisjointness(16, 6, true, 9)
	ans, det, err := SolveDisjointness(d, 6, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ans {
		t.Fatalf("intersecting instance answered NO (estimate %.1f)", det.Estimate)
	}
	d2, _ := NewDisjointness(16, 6, false, 10)
	ans2, _, err := SolveDisjointness(d2, 6, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ans2 {
		t.Fatal("disjoint instance answered YES")
	}
}

func TestMinimalDetectionSpace(t *testing.T) {
	cfg := core.DefaultConfig(0.3, 8, 64)
	space, err := MinimalDetectionSpace(4, 4, 12, 4, cfg, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	if space <= 0 {
		t.Fatalf("space = %d", space)
	}
	if _, err := MinimalDetectionSpace(4, 4, 12, 4, cfg, 0, 21); err == nil {
		t.Error("trials=0 should fail")
	}
}
