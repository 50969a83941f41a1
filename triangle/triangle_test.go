package triangle

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExactAndDegeneracy(t *testing.T) {
	tri := []Edge{{0, 1}, {1, 2}, {0, 2}}
	if Exact(tri) != 1 {
		t.Fatalf("Exact(triangle) = %d", Exact(tri))
	}
	if Degeneracy(tri) != 2 {
		t.Fatalf("Degeneracy(triangle) = %d", Degeneracy(tri))
	}
	// Dirty input: loops, duplicates, negatives are ignored.
	dirty := []Edge{{0, 1}, {1, 0}, {2, 2}, {-1, 3}, {1, 2}, {0, 2}}
	if Exact(dirty) != 1 {
		t.Fatalf("Exact(dirty) = %d", Exact(dirty))
	}
	if Exact(nil) != 0 {
		t.Fatal("Exact(nil) should be 0")
	}
}

func TestGeneratorsGroundTruth(t *testing.T) {
	if got := Exact(Wheel(101)); got != 100 {
		t.Errorf("wheel triangles = %d, want 100", got)
	}
	if got := Exact(Book(77)); got != 77 {
		t.Errorf("book triangles = %d, want 77", got)
	}
	if got := Exact(Friendship(20)); got != 20 {
		t.Errorf("friendship triangles = %d, want 20", got)
	}
	if got := Exact(Apollonian(40)); got != 121 {
		t.Errorf("apollonian triangles = %d, want 121", got)
	}
	pa := PreferentialAttachment(500, 3, 7)
	if Degeneracy(pa) != 3 {
		t.Errorf("preferential attachment degeneracy = %d, want 3", Degeneracy(pa))
	}
	pl := PowerLaw(800, 6, 2.5, 9)
	if len(pl) == 0 {
		t.Error("power-law generator returned no edges")
	}
}

func TestGraphStats(t *testing.T) {
	s := GraphStats(Wheel(100))
	if s.Vertices != 100 || s.Edges != 198 || s.Triangles != 99 || s.Degeneracy != 3 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxDegree != 99 || s.EdgeDegreeSum <= 0 || s.Transitivity <= 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEstimateErrorsOnEmpty(t *testing.T) {
	if _, err := Estimate(nil, Options{}); err != ErrNoEdges {
		t.Fatalf("expected ErrNoEdges, got %v", err)
	}
}

// TestEstimateRejectsIDsAboveInt32 pins the in-memory entry points' ID
// range: an edge naming an ID above 2³¹ − 1 is an error naming that edge,
// where it once crashed the process asking for a table sized by the ID.
func TestEstimateRejectsIDsAboveInt32(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {0, 1 << 40}}
	want := fmt.Sprintf("(0,%d)", 1<<40)
	_, errEst := Estimate(edges, Options{})
	_, errCtx := EstimateCtx(context.Background(), edges, Options{Degeneracy: 2})
	_, errCliques := EstimateCliques(edges, CliqueOptions{K: 4, CliqueGuess: 1})
	for name, err := range map[string]error{"Estimate": errEst, "EstimateCtx": errCtx, "EstimateCliques": errCliques} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s = %v, want an error naming the edge %s", name, err, want)
		}
	}
}

func TestEstimateWheelWithExplicitParameters(t *testing.T) {
	edges := Wheel(3000)
	truth := float64(Exact(edges))
	var sum float64
	trials := 6
	for i := 0; i < trials; i++ {
		res, err := Estimate(edges, Options{
			Epsilon:       0.1,
			Degeneracy:    3,
			TriangleGuess: int64(truth),
			Seed:          uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes != 6 {
			t.Fatalf("passes = %d, want 6", res.Passes)
		}
		if res.DegeneracyBound != 3 {
			t.Fatalf("kappa bound = %d", res.DegeneracyBound)
		}
		sum += res.Estimate
	}
	rel := math.Abs(sum/float64(trials)-truth) / truth
	if rel > 0.25 {
		t.Fatalf("relative error %.3f", rel)
	}
}

func TestEstimateAutoParameters(t *testing.T) {
	edges := PreferentialAttachment(2000, 4, 11)
	truth := float64(Exact(edges))
	var sum float64
	trials := 5
	for i := 0; i < trials; i++ {
		res, err := Estimate(edges, Options{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Edges == 0 || res.SpaceWords == 0 {
			t.Fatalf("missing accounting: %+v", res)
		}
		sum += res.Estimate
	}
	rel := math.Abs(sum/float64(trials)-truth) / truth
	if rel > 0.4 {
		t.Fatalf("auto-parameter relative error %.3f", rel)
	}
}

// TestEstimateDefaultsApplied pins that zero ε, multiplier and seed select
// the library defaults, while an out-of-range ε or multiplier is an error
// rather than a silent swap to the default.
func TestEstimateDefaultsApplied(t *testing.T) {
	edges := Wheel(500)
	res, err := Estimate(edges, Options{Degeneracy: 3, TriangleGuess: 499})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Estimate(edges, Options{Epsilon: 0.1, Seed: 1, SampleMultiplier: 1, Degeneracy: 3, TriangleGuess: 499})
	if err != nil || explicit.Estimate != res.Estimate {
		t.Fatalf("zero options gave %v, the explicit defaults %v (%v)", res.Estimate, explicit.Estimate, err)
	}
	if _, err := Estimate(edges, Options{Epsilon: 5, SampleMultiplier: -1, Degeneracy: 3, TriangleGuess: 499}); err == nil {
		t.Fatal("ε = 5 and multiplier -1 must be rejected")
	}
}

func TestEstimateRespectsSpaceCutoff(t *testing.T) {
	edges := PreferentialAttachment(2000, 3, 5)
	res, err := Estimate(edges, Options{Degeneracy: 3, TriangleGuess: 1, MaxSpaceWords: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("expected abort at tiny space budget")
	}
}

func writeEdgeFile(t *testing.T, edges []Edge) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, e := range edges {
		if _, err := f.WriteString(itoa(e.U) + " " + itoa(e.V) + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestFileAPIs(t *testing.T) {
	edges := Wheel(400)
	path := writeEdgeFile(t, edges)

	exact, err := ExactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if exact != 399 {
		t.Fatalf("ExactFile = %d", exact)
	}

	stats, err := GraphStatsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Triangles != 399 || stats.Degeneracy != 3 {
		t.Fatalf("stats %+v", stats)
	}

	// SampleMultiplier 4 keeps the single-run variance low enough for a
	// stable threshold (at 1× this workload's per-run error is routinely
	// ~0.4-0.7 at any seed; the estimator is unbiased, not low-variance).
	res, err := EstimateFile(path, Options{Degeneracy: 3, TriangleGuess: 399, Seed: 2, SampleMultiplier: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Fatalf("edges = %d, want %d", res.Edges, len(edges))
	}
	rel := math.Abs(res.Estimate-399) / 399
	if rel > 0.6 {
		t.Fatalf("single-run relative error %.3f unexpectedly large", rel)
	}

	// Without a degeneracy bound the file API approximates one from the
	// stream: a certified upper bound within the peeling factor 2(1+ε) = 3
	// of the true κ = 3, never a materializing pass.
	res2, err := EstimateFile(path, Options{Seed: 2, TriangleGuess: 399})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.DegeneracyApprox {
		t.Fatal("expected the streamed degeneracy approximation")
	}
	if res2.DegeneracyBound < 3 || res2.DegeneracyBound > 9 {
		t.Fatalf("approximate degeneracy bound = %d, want within [3, 9]", res2.DegeneracyBound)
	}

	// The exact escape hatch still reports the tight bound.
	res3, err := EstimateFile(path, Options{Seed: 2, TriangleGuess: 399, ExactDegeneracy: true})
	if err != nil {
		t.Fatal(err)
	}
	if res3.DegeneracyBound != 3 || res3.DegeneracyApprox {
		t.Fatalf("exact degeneracy bound = %d (approx=%v), want 3 (exact)", res3.DegeneracyBound, res3.DegeneracyApprox)
	}
}

func TestFileAPIErrors(t *testing.T) {
	if _, err := ExactFile("/definitely/not/a/file"); err == nil {
		t.Error("missing file should error")
	}
	if _, err := GraphStatsFile("/definitely/not/a/file"); err == nil {
		t.Error("missing file should error")
	}
	if _, err := EstimateFile("/definitely/not/a/file", Options{Degeneracy: 2}); err == nil {
		t.Error("missing file should error")
	}
	empty := writeEdgeFile(t, nil)
	if _, err := EstimateFile(empty, Options{Degeneracy: 2}); err != ErrNoEdges {
		t.Errorf("empty file should return ErrNoEdges, got %v", err)
	}
	if _, err := EstimateFile(writeEdgeFile(t, Wheel(50)), Options{SampleMultiplier: math.NaN()}); err == nil {
		t.Error("a NaN sample multiplier should error")
	}
}

// TestAccuracyOptionErrors pins that every estimate entry point rejects an
// ε outside (0, 1), a negative or non-finite multiplier and a negative
// degeneracy bound, zero aside, before it reads the input; the triangle
// entry points also reject a negative guess, worker count or space budget,
// and OpenScanGroup a negative worker count.
func TestAccuracyOptionErrors(t *testing.T) {
	edges := Wheel(50)
	path := writeEdgeFile(t, edges)
	g, err := OpenScanGroup(context.Background(), path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	check := func(name string, opts Options, copts *CliqueOptions, wantInText string) {
		t.Helper()
		calls := map[string]func() error{
			"Estimate":           func() error { _, err := Estimate(edges, opts); return err },
			"EstimateFile":       func() error { _, err := EstimateFile(path, opts); return err },
			"EstimateFileTrials": func() error { _, err := EstimateFileTrials(path, opts, 2); return err },
			"ScanGroup.Estimate": func() error { _, err := g.Estimate(context.Background(), opts); return err },
		}
		if copts != nil {
			calls["EstimateCliques"] = func() error { _, err := EstimateCliques(edges, *copts); return err }
			calls["ScanGroup.EstimateCliques"] = func() error {
				_, err := g.EstimateCliques(context.Background(), *copts)
				return err
			}
		}
		for call, run := range calls {
			if err := run(); err == nil || !strings.Contains(err.Error(), wantInText) {
				t.Errorf("%s with %s: error %v, want one naming %s", call, name, err, wantInText)
			}
		}
	}
	bad := []struct {
		name       string
		eps, mult  float64
		wantInText string
	}{
		{"epsilon 7", 7, 0, "Epsilon"},
		{"epsilon 1", 1, 0, "Epsilon"},
		{"epsilon -0.5", -0.5, 0, "Epsilon"},
		{"epsilon NaN", math.NaN(), 0, "Epsilon"},
		{"epsilon +Inf", math.Inf(1), 0, "Epsilon"},
		{"multiplier -3", 0, -3, "SampleMultiplier"},
		{"multiplier +Inf", 0, math.Inf(1), "SampleMultiplier"},
		{"multiplier NaN", 0.1, math.NaN(), "SampleMultiplier"},
	}
	for _, c := range bad {
		opts := Options{Epsilon: c.eps, SampleMultiplier: c.mult, Degeneracy: 3}
		copts := CliqueOptions{K: 4, CliqueGuess: 10, Epsilon: c.eps, SampleMultiplier: c.mult, Degeneracy: 3}
		check(c.name, opts, &copts, c.wantInText)
	}
	check("degeneracy -5", Options{Degeneracy: -5}, &CliqueOptions{K: 4, CliqueGuess: 10, Degeneracy: -5}, "Degeneracy")
	check("guess -5", Options{Degeneracy: 3, TriangleGuess: -5}, nil, "TriangleGuess")
	check("workers -2", Options{Degeneracy: 3, Workers: -2}, nil, "Workers")
	check("budget -1", Options{Degeneracy: 3, MaxSpaceWords: -1}, nil, "MaxSpaceWords")
	if _, err := OpenScanGroup(context.Background(), path, GroupOptions{Workers: -1}); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("OpenScanGroup with Workers -1: error %v, want one naming Workers", err)
	}
	if g.Scans() != 1 {
		t.Errorf("the group scanned %d times; rejected requests must not scan (want only the opening count)", g.Scans())
	}
}
