package triangle

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/graph"
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
// for the same seed and stream order. The default path's runs read the
// peel's degrees and the pinned runs count them, so the files below cover
// that degree oracle: text and .bex v2 with 64-edge blocks, 1 and 4
// workers, a search and a fixed guess, and a stream with self-loops. At a
// fixed guess the default path makes exactly one logical pass fewer, the
// peel aside.
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

	inputs := []struct {
		name  string
		edges []Edge
		guess int64
	}{
		{"pref-attach", edges, Exact(edges)},
		{"path-with-loops", pathWithLoops(4000), 100},
	}
	for _, in := range inputs {
		for _, path := range []string{writeEdgeFile(t, in.edges), writeBex64(t, in.edges)} {
			peel := peelPasses(t, path)
			for _, workers := range []int{1, 4} {
				for _, guess := range []int64{0, in.guess} {
					label := fmt.Sprintf("%s %s workers=%d guess=%d", in.name, filepath.Ext(path), workers, guess)
					opts := Options{Seed: 3, Workers: workers, TriangleGuess: guess}
					auto, err := EstimateFile(path, opts)
					if err != nil || !auto.DegeneracyApprox {
						t.Fatalf("%s: default path: %+v, %v", label, auto, err)
					}
					opts.Degeneracy = auto.DegeneracyBound
					pinned, err := EstimateFile(path, opts)
					if err != nil {
						t.Fatalf("%s: pinned κ: %v", label, err)
					}
					if math.Float64bits(auto.Estimate) != math.Float64bits(pinned.Estimate) {
						t.Errorf("%s: streamed κ̂ gives %v, κ = %d supplied gives %v", label, auto.Estimate, opts.Degeneracy, pinned.Estimate)
					}
					if guess > 0 && auto.Passes-peel != pinned.Passes-1 {
						t.Errorf("%s: %d passes with the peel's %d, %d with κ supplied; want one fewer besides the peel",
							label, auto.Passes, peel, pinned.Passes)
					}
				}
			}
		}
	}
}

// pathWithLoops is the path 0–1–…–(n−1) with a self-loop at every even
// vertex: no triangle, and loops spread through the whole stream.
func pathWithLoops(n int) []Edge {
	var edges []Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	for i := 0; i < n; i += 2 {
		edges = append(edges, Edge{i, i})
	}
	return edges
}

// writeBex64 writes edges as a .bex v2 file with 64-edge blocks.
func writeBex64(t *testing.T, edges []Edge) string {
	t.Helper()
	ge := make([]graph.Edge, len(edges))
	for i, e := range edges {
		ge[i] = graph.Edge{U: int32(e.U), V: int32(e.V)}
	}
	path := filepath.Join(t.TempDir(), "edges.bex")
	if _, err := stream.WriteBex2File(path, stream.FromEdges(ge), 64); err != nil {
		t.Fatal(err)
	}
	return path
}

// peelPasses is the logical passes of the κ̂ peel over the file, the text's
// opening count aside (which EstimateFile also makes).
func peelPasses(t *testing.T, path string) int {
	t.Helper()
	g, err := OpenScanGroup(context.Background(), path, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	k, err := g.Degeneracy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return k.Passes
}

// TestSelfLoopsEstimateZero pins that self-loops are ignored by every pass:
// a path with loops has no triangle, so every estimate is 0 — over text
// and .bex, at 1 and 4 workers, searching and at a fixed guess, with κ̂
// streamed or supplied. A sampled loop once closed into a degenerate
// triangle and panicked.
func TestSelfLoopsEstimateZero(t *testing.T) {
	edges := pathWithLoops(4000)
	for _, path := range []string{writeEdgeFile(t, edges), writeBex64(t, edges)} {
		for _, workers := range []int{1, 4} {
			for _, kappa := range []int{0, 2} {
				for _, guess := range []int64{0, 100} {
					opts := Options{Seed: 1, Workers: workers, Degeneracy: kappa, TriangleGuess: guess}
					res, err := EstimateFile(path, opts)
					if err != nil || res.Estimate != 0 {
						t.Errorf("%s %+v: estimate %v, %v; want 0", filepath.Ext(path), opts, res.Estimate, err)
					}
				}
			}
		}
	}
}

// TestCliqueEstimateIgnoresSelfLoops pins the 4-clique estimate on 1,000
// disjoint K4s, each with a self-loop: within 5% of 1,000 for seeds 1–3. A
// loop once counted toward its vertex's degree and neighbourhood, which
// biased these estimates to about 1,485.
func TestCliqueEstimateIgnoresSelfLoops(t *testing.T) {
	var edges []Edge
	for k := 0; k < 1000; k++ {
		b := 4 * k
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				edges = append(edges, Edge{b + i, b + j})
			}
		}
		edges = append(edges, Edge{b, b})
	}
	g, err := OpenScanGroup(context.Background(), writeEdgeFile(t, edges), GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := g.EstimateCliques(context.Background(), CliqueOptions{K: 4, CliqueGuess: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Estimate-1000) > 50 {
			t.Errorf("seed %d: 4-clique estimate %.1f, want within 5%% of 1000", seed, res.Estimate)
		}
		t.Logf("seed %d: %.1f", seed, res.Estimate)
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

// TestBexEstimateSkipsTheVertexPass pins that the vertex count is a fact of
// the stream: a default estimate over .bex, whose footer reports n at open,
// makes exactly one pass and one scan fewer than over the same edges as
// text, whose opening count finds m and n, with identical estimate bits, κ̂
// and SpaceWords.
func TestBexEstimateSkipsTheVertexPass(t *testing.T) {
	edges := ClusteredPreferentialAttachment(3000, 4, 0.6, 5)
	opts := Options{Seed: 9, Workers: 2}
	text, err := EstimateFile(writeEdgeFile(t, edges), opts)
	if err != nil {
		t.Fatal(err)
	}
	bex, err := EstimateFile(writeBex64(t, edges), opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(bex.Estimate) != math.Float64bits(text.Estimate) ||
		bex.SpaceWords != text.SpaceWords || bex.DegeneracyBound != text.DegeneracyBound {
		t.Fatalf(".bex %+v and text %+v diverge", bex, text)
	}
	if bex.Passes != text.Passes-1 || bex.Scans != text.Scans-1 {
		t.Errorf(".bex made %d passes in %d scans, text %d in %d; want one of each fewer",
			bex.Passes, bex.Scans, text.Passes, text.Scans)
	}
}
