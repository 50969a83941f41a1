package degen_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/degen"
	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/stream"
)

// checkBounds asserts the estimator's two certificates against the exact
// degeneracy: κ ≤ Kappa ≤ 2(1+ε)·κ and LowerBound ≤ κ.
func checkBounds(t *testing.T, name string, g *graph.Graph, eps float64) degen.Result {
	t.Helper()
	exact := g.Degeneracy()
	m := g.NumEdges()
	res, err := degen.Estimate(stream.FromGraphShuffled(g, 7), m, degen.Options{Epsilon: eps})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if eps <= 0 {
		eps = degen.DefaultEpsilon
	}
	if res.Kappa < exact {
		t.Errorf("%s: Kappa = %d below the true degeneracy %d", name, res.Kappa, exact)
	}
	if limit := 2 * (1 + eps) * float64(exact); float64(res.Kappa) > limit {
		t.Errorf("%s: Kappa = %d exceeds the certified factor: 2(1+%g)·%d = %.1f", name, res.Kappa, eps, exact, limit)
	}
	if res.LowerBound > exact {
		t.Errorf("%s: LowerBound = %d above the true degeneracy %d", name, res.LowerBound, exact)
	}
	if res.Passes != res.Rounds+1 {
		t.Errorf("%s: passes = %d, want rounds+1 = %d", name, res.Passes, res.Rounds+1)
	}
	// O(n) words: the dense degree array plus the alive bitset and nothing
	// proportional to m.
	n := int64(g.NumVertices())
	if res.SpaceWords > 2*n+64 {
		t.Errorf("%s: space = %d words for n = %d, want O(n)", name, res.SpaceWords, n)
	}
	return res
}

func TestApproximationRatioAcrossFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"erdos-renyi-gnp", gen.ErdosRenyiGNP(1200, 0.01, 5)},
		{"erdos-renyi-gnm", gen.ErdosRenyiGNM(1500, 9000, 6)},
		{"barabasi-albert", gen.BarabasiAlbert(2500, 5, 17)},
		{"holme-kim", gen.HolmeKim(2500, 6, 0.7, 23)},
		{"planar-wheel", gen.Wheel(800)},
		{"apollonian", gen.Apollonian(300)},
		{"complete-K31", gen.Complete(31)},
		{"path", gen.Path(400)},
		{"star", gen.Star(512)},
		{"book", gen.Book(200)},
	}
	for _, c := range cases {
		for _, eps := range []float64{0, 0.25, 1} {
			checkBounds(t, fmt.Sprintf("%s/eps=%g", c.name, eps), c.g, eps)
		}
	}
}

// TestGolden pins the exact approximation on fixed inputs: the peel is
// deterministic (no randomness at all), so these values are stable across
// worker counts, backends, and refactors. A change here is a behavior change
// of the estimator, not noise.
func TestGolden(t *testing.T) {
	goldens := []struct {
		name       string
		g          *graph.Graph
		wantKappa  int
		wantLower  int
		wantRounds int
	}{
		// Pinned from the first run of this suite (exact κ: 3, 4, 3); see
		// TestApproximationRatioAcrossFamilies for the mathematical envelope
		// these sit inside.
		{"wheel-500", gen.Wheel(500), 3, 2, 2},
		{"holme-kim-1200-4", gen.HolmeKim(1200, 4, 0.7, 9), 11, 4, 4},
		{"barabasi-albert-1500-3", gen.BarabasiAlbert(1500, 3, 11), 8, 3, 4},
	}
	for _, c := range goldens {
		res, err := degen.Estimate(stream.FromGraphShuffled(c.g, 3), c.g.NumEdges(), degen.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Kappa != c.wantKappa || res.LowerBound != c.wantLower || res.Rounds != c.wantRounds {
			t.Errorf("%s: (κ̂=%d, lower=%d, rounds=%d), pinned (%d, %d, %d)",
				c.name, res.Kappa, res.LowerBound, res.Rounds, c.wantKappa, c.wantLower, c.wantRounds)
		}
	}
}

// TestWorkerInvarianceAcrossBackends runs the same peel at 1/2/4/8 workers
// over the in-memory, text-file, and .bex backends: every Result must be
// bit-identical (the peel is deterministic and the shard grid is fixed).
func TestWorkerInvarianceAcrossBackends(t *testing.T) {
	g := gen.HolmeKim(6000, 5, 0.6, 41)
	m := g.NumEdges()
	if stream.ActiveShards(m) < 3 {
		t.Fatalf("graph too small to exercise the parallel path: %d shards", stream.ActiveShards(m))
	}
	dir := t.TempDir()

	textPath := filepath.Join(dir, "edges.txt")
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
	bexPath := filepath.Join(dir, "edges.bex")
	if _, err := stream.WriteBex2File(bexPath, stream.FromGraph(g), 64); err != nil {
		t.Fatal(err)
	}

	backends := map[string]func() stream.Stream{
		"memory": func() stream.Stream { return stream.FromGraph(g) },
		"text":   func() stream.Stream { return stream.OpenFile(textPath) },
		"bex": func() stream.Stream {
			bs, err := stream.OpenBex2(bexPath)
			if err != nil {
				t.Fatal(err)
			}
			return bs
		},
	}
	var baseline *degen.Result
	for name, open := range backends {
		for _, workers := range []int{1, 2, 4, 8} {
			s := open()
			res, err := degen.Estimate(s, m, degen.Options{Workers: workers})
			if c, ok := s.(interface{ Close() error }); ok {
				c.Close()
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if baseline == nil {
				b := res
				baseline = &b
				continue
			}
			if res != *baseline {
				t.Errorf("%s workers=%d: result %+v diverges from baseline %+v", name, workers, res, *baseline)
			}
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	// Empty stream.
	res, err := degen.Estimate(stream.FromEdges(nil), 0, degen.Options{})
	if err != nil || res.Kappa != 0 || res.Passes != 0 {
		t.Fatalf("empty stream: %+v, %v", res, err)
	}
	// Only negative IDs: one discovery pass, nothing peelable.
	neg := []graph.Edge{{U: -1, V: -2}}
	res, err = degen.Estimate(stream.FromEdges(neg), len(neg), degen.Options{})
	if err != nil || res.Kappa != 0 || res.Passes != 1 {
		t.Fatalf("negative-only stream: %+v, %v", res, err)
	}
	// Self loops are ignored; the remaining edge gives κ̂ = 1.
	loops := []graph.Edge{{U: 0, V: 0}, {U: 3, V: 3}, {U: 0, V: 1}}
	res, err = degen.Estimate(stream.FromEdges(loops), len(loops), degen.Options{})
	if err != nil || res.Kappa != 1 {
		t.Fatalf("loopy stream: %+v, %v", res, err)
	}
	// A single edge: κ = 1 exactly.
	one := []graph.Edge{{U: 0, V: 1}}
	res, err = degen.Estimate(stream.FromEdges(one), 1, degen.Options{})
	if err != nil || res.Kappa != 1 || res.LowerBound != 1 {
		t.Fatalf("single edge: %+v, %v", res, err)
	}
}

// TestDuplicateEdgesOnlyRaiseTheBound pins the multigraph semantics: a
// doubled stream still yields a valid upper bound for the simple graph.
func TestDuplicateEdgesOnlyRaiseTheBound(t *testing.T) {
	g := gen.Wheel(300)
	exact := g.Degeneracy()
	doubled := append(append([]graph.Edge{}, g.Edges()...), g.Edges()...)
	res, err := degen.Estimate(stream.FromEdges(doubled), len(doubled), degen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kappa < exact {
		t.Fatalf("doubled stream κ̂ = %d below simple κ = %d", res.Kappa, exact)
	}
}

// TestStreamErrorPropagates checks that a failing backend surfaces as an
// error instead of a bogus bound.
func TestStreamErrorPropagates(t *testing.T) {
	if _, err := degen.Estimate(stream.OpenFile("/definitely/not/a/file"), 10, degen.Options{}); err == nil {
		t.Fatal("expected an error from a missing file")
	}
}
