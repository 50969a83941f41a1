package triangle

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/stream"
)

// TestEstimateRejectsAllDroppedEdges pins the fix for the silent
// Result{}, nil return: an input whose every edge is filtered out by
// canonicalization (self loops, negative IDs) is as empty as a nil slice.
func TestEstimateRejectsAllDroppedEdges(t *testing.T) {
	degenerate := [][]Edge{
		{{2, 2}},
		{{-1, 3}, {4, -4}},
		{{0, 0}, {-5, 2}, {7, 7}},
	}
	for _, edges := range degenerate {
		if _, err := Estimate(edges, Options{}); err != ErrNoEdges {
			t.Errorf("Estimate(%v): expected ErrNoEdges, got %v", edges, err)
		}
	}
}

// TestMultigraphSemanticsDiffer pins the documented split between the two
// entry points: Estimate canonicalizes (duplicates collapse), EstimateFile
// streams the file verbatim (duplicates are parallel edges that inflate m).
func TestMultigraphSemanticsDiffer(t *testing.T) {
	base := Wheel(300)
	doubled := append(append([]Edge{}, base...), base...)
	path := writeEdgeFile(t, doubled)

	mem, err := Estimate(doubled, Options{Seed: 5, TriangleGuess: 299})
	if err != nil {
		t.Fatal(err)
	}
	if mem.Edges != len(base) {
		t.Fatalf("Estimate deduplicates: m = %d, want %d", mem.Edges, len(base))
	}

	file, err := EstimateFile(path, Options{Seed: 5, TriangleGuess: 299, Degeneracy: 3})
	if err != nil {
		t.Fatal(err)
	}
	if file.Edges != len(doubled) {
		t.Fatalf("EstimateFile streams verbatim: m = %d, want %d", file.Edges, len(doubled))
	}
}

// TestEstimateFileStreamingSpaceIsLinearInN is the PR's acceptance test: on a
// ~10⁶-edge graph with no caller-supplied degeneracy bound, EstimateFile must
// stay on the streaming path — the accounted peak space is O(n) words
// (dominated by the peeling state), nowhere near the Θ(m) a materializing κ
// computation would need, and the bound it derives is certified.
func TestEstimateFileStreamingSpaceIsLinearInN(t *testing.T) {
	if testing.Short() {
		t.Skip("million-edge acceptance test skipped in -short mode")
	}
	const n, k = 125_000, 8
	g := gen.HolmeKim(n, k, 0.7, 97)
	m := g.NumEdges()
	if m < 990_000 {
		t.Fatalf("generated graph too small: m = %d", m)
	}
	path := filepath.Join(t.TempDir(), "big.bex")
	if _, err := stream.WriteBex2File(path, stream.FromGraph(g), 64); err != nil {
		t.Fatal(err)
	}

	res, err := EstimateFile(path, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DegeneracyApprox {
		t.Fatal("expected the streamed degeneracy approximation")
	}
	if res.DegeneracyBound < k || res.DegeneracyBound > 3*k {
		t.Fatalf("approximate bound = %d, want within [κ, 3κ] = [%d, %d]", res.DegeneracyBound, k, 3*k)
	}
	if res.Edges != m {
		t.Fatalf("m = %d, want %d", res.Edges, m)
	}
	// O(n), with room for the estimator's own mκ/T-scaled samples; far below
	// the ≥ 2m words a materialized adjacency would cost.
	if limit := int64(4 * n); res.SpaceWords > limit {
		t.Fatalf("peak space = %d words, want ≤ 4n = %d (m = %d)", res.SpaceWords, limit, m)
	}
	if res.SpaceWords >= int64(m) {
		t.Fatalf("peak space = %d words is not sublinear in m = %d", res.SpaceWords, m)
	}
	t.Logf("n=%d m=%d κ̂=%d passes=%d space=%d words estimate=%.0f",
		n, m, res.DegeneracyBound, res.Passes, res.SpaceWords, res.Estimate)
}

// TestEstimateDefaultMatchesExplicitApproxBound checks the two ways of
// spelling "no bound" agree end to end: the default path reports the same
// estimate as supplying the approximation's own output as an explicit bound,
// for the same seed and stream order.
func TestEstimateDefaultMatchesExplicitApproxBound(t *testing.T) {
	edges := PreferentialAttachment(3000, 4, 13)
	auto, err := Estimate(edges, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.DegeneracyApprox {
		t.Fatal("expected the streamed approximation on the default path")
	}
	pinned, err := Estimate(edges, Options{Seed: 3, Degeneracy: auto.DegeneracyBound})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Estimate != auto.Estimate {
		t.Fatalf("explicit bound %d gives estimate %v, default path gave %v",
			auto.DegeneracyBound, pinned.Estimate, auto.Estimate)
	}
	if pinned.DegeneracyApprox {
		t.Fatal("explicit bound must not be flagged approximate")
	}
}

// TestEstimateFileTextAndBexAgree checks the degeneracy approximation (and
// with it the whole estimate) is a function of stream content, not of the
// backend: the same edges through text and binary readers give identical
// results.
func TestEstimateFileTextAndBexAgree(t *testing.T) {
	g := gen.HolmeKim(4000, 5, 0.6, 51)
	dir := t.TempDir()
	textPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(f, "%d %d\n", e.U, e.V)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bexPath := filepath.Join(dir, "g.bex")
	if _, err := stream.WriteBex2File(bexPath, stream.FromGraph(g), 64); err != nil {
		t.Fatal(err)
	}

	opts := Options{Seed: 77, Workers: 4}
	text, err := EstimateFile(textPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	bex, err := EstimateFile(bexPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	if text.Estimate != bex.Estimate || text.DegeneracyBound != bex.DegeneracyBound {
		t.Fatalf("text %+v and .bex %+v diverge", text, bex)
	}
}
