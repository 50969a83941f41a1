package degen_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"degentri/internal/degen"
	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/stream"
)

// checkBounds asserts the estimator's two certificates against the exact
// degeneracy: κ ≤ Kappa ≤ 2(1+ε)·κ and LowerBound ≤ κ.
func checkBounds(t *testing.T, name string, g *graph.Graph, eps float64) degen.Result {
	t.Helper()
	exact := g.Degeneracy()
	m := g.NumEdges()
	res, err := degen.Estimate(stream.FromGraphShuffled(g, 7), degen.Options{Epsilon: eps})
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
	if res.Passes != res.Rounds {
		t.Errorf("%s: passes = %d, want rounds = %d", name, res.Passes, res.Rounds)
	}
	// O(n) words and nothing proportional to m: round 1's degree array and
	// the alive bitset, plus from round 2 on a working array for round 1's
	// survivors (the vertices above the first cut) and the rank base.
	n := int64(g.NumVertices())
	want := n + (n+63)/64
	cut := 2 * (1 + eps) * float64(m) / float64(n)
	survivors := int64(0)
	for v := range g.NumVertices() {
		if float64(g.Degree(v)) > cut {
			survivors++
		}
	}
	if survivors > 0 {
		want += survivors + (n+63)/64
	}
	if survivors >= n || (survivors > 0) != (res.Rounds > 1) {
		t.Errorf("%s: %d of %d vertices survive round 1, yet %d rounds ran", name, survivors, n, res.Rounds)
	}
	if res.SpaceWords != want {
		t.Errorf("%s: space = %d words for n = %d over %d rounds, want %d", name, res.SpaceWords, n, res.Rounds, want)
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
		res, err := degen.Estimate(stream.FromGraphShuffled(c.g, 3), degen.Options{})
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
// bit-identical (the peel is deterministic and the shard grid is fixed),
// except that a text adds its opening count to Passes.
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
			res, err := degen.Estimate(s, degen.Options{Workers: workers})
			if c, ok := s.(interface{ Close() error }); ok {
				c.Close()
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if name == "text" {
				res.Passes-- // the opening count
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
	res, err := degen.Estimate(stream.FromEdges(nil), degen.Options{})
	if err != nil || res.Kappa != 0 || res.Passes != 0 {
		t.Fatalf("empty stream: %+v, %v", res, err)
	}
	// Only negative IDs: the stream reports n = 0, nothing peelable, no pass.
	neg := []graph.Edge{{U: -1, V: -2}}
	res, err = degen.Estimate(stream.FromEdges(neg), degen.Options{})
	if err != nil || res.Kappa != 0 || res.Passes != 0 {
		t.Fatalf("negative-only stream: %+v, %v", res, err)
	}
	// Self loops are ignored; the remaining edge gives κ̂ = 1.
	loops := []graph.Edge{{U: 0, V: 0}, {U: 3, V: 3}, {U: 0, V: 1}}
	res, err = degen.Estimate(stream.FromEdges(loops), degen.Options{})
	if err != nil || res.Kappa != 1 {
		t.Fatalf("loopy stream: %+v, %v", res, err)
	}
	// A single edge: κ = 1 exactly.
	one := []graph.Edge{{U: 0, V: 1}}
	res, err = degen.Estimate(stream.FromEdges(one), degen.Options{})
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
	res, err := degen.Estimate(stream.FromEdges(doubled), degen.Options{})
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
	if _, err := degen.Estimate(stream.OpenFile("/definitely/not/a/file"), degen.Options{}); err == nil {
		t.Fatal("expected an error from a missing file")
	}
}

// TestEstimateWithDegrees pins the degree oracle the peel hands its caller:
// round 1's array holds every vertex's degree under the peel's counting rule
// (self-loops skipped, duplicates counted), the result equals EstimateOn's,
// and the executor's meter sees the whole footprint while the peel runs and
// nothing after it returns.
func TestEstimateWithDegrees(t *testing.T) {
	g := gen.HolmeKim(3000, 5, 0.6, 9)
	edges := append([]graph.Edge{}, g.Edges()...)
	edges = append(edges, edges[:500]...) // duplicates
	for v := 0; v < g.NumVertices(); v += 7 {
		edges = append(edges, graph.Edge{U: int32(v), V: int32(v)})
	}
	n := g.NumVertices()
	want := make([]int32, n)
	for _, e := range edges {
		if e.U != e.V {
			want[e.U]++
			want[e.V]++
		}
	}
	for _, workers := range []int{1, 4} {
		x := passes.NewDirect(stream.FromEdges(edges), len(edges), workers)
		res, deg, err := degen.EstimateWithDegrees(x, degen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(deg, want) {
			t.Fatalf("workers=%d: round-1 degrees diverge from the brute-force count", workers)
		}
		if meter := x.Meter(); meter.Current() != 0 || meter.Peak() != res.SpaceWords {
			t.Errorf("workers=%d: meter current %d peak %d, want 0 and the footprint %d", workers, meter.Current(), meter.Peak(), res.SpaceWords)
		}
		alone, err := degen.EstimateOn(passes.NewDirect(stream.FromEdges(edges), len(edges), workers), degen.Options{})
		if err != nil || alone != res {
			t.Errorf("workers=%d: EstimateOn %+v (%v), EstimateWithDegrees %+v", workers, alone, err, res)
		}
	}
}

// TestFooterUnderstatingIDsFailsThePeel pins what keeps a .bex footer honest
// at no cost: a file whose footer records claim a largest ID of 10, with
// the footer's CRC recomputed so that it opens, reports n = 11, and the
// peel's first round fails on the first edge beyond it with an I/O-class
// error naming that edge.
func TestFooterUnderstatingIDsFailsThePeel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "understated.bex")
	if _, err := stream.WriteBex2File(path, stream.FromGraph(gen.Wheel(300)), 64); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The tail's last 32 bytes: footer offset, block count, footer CRC.
	tail := raw[len(raw)-32:]
	off := binary.LittleEndian.Uint64(tail[0:])
	blocks := int(binary.LittleEndian.Uint32(tail[8:]))
	footer := raw[off : off+uint64(32*blocks)]
	for i := range blocks {
		binary.LittleEndian.PutUint32(footer[32*i+24:], 10) // the record's largest ID
	}
	binary.LittleEndian.PutUint32(tail[12:], crc32.Checksum(footer, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	bs, err := stream.OpenBex2(path)
	if err != nil {
		t.Fatalf("the rewritten footer does not open: %v", err)
	}
	defer bs.Close()
	if n, ok := stream.VerticesOf(bs); !ok || n != 11 {
		t.Fatalf("Vertices() = %d, %v; want the footer's 11", n, ok)
	}
	res, err := degen.Estimate(bs, degen.Options{})
	if !errors.Is(err, stream.ErrCorruptHeader) || !strings.Contains(err.Error(), "round 1") || !strings.Contains(err.Error(), "(0,11)") {
		t.Fatalf("peel over an understating footer: %+v, %v; want round 1 to fail naming edge (0,11) and wrapping ErrCorruptHeader", res, err)
	}
}

// TestPeelNeedsAVertexCount pins that an executor whose stream reports no
// vertex count cannot be peeled: the peel fails before any pass.
func TestPeelNeedsAVertexCount(t *testing.T) {
	edges := gen.Wheel(100).Edges()
	x := passes.NewDirect(stream.NewPassCounter(stream.FromEdges(edges)), len(edges), 1)
	if res, err := degen.EstimateOn(x, degen.Options{}); err == nil || res.Passes != 0 || x.Passes() != 0 {
		t.Fatalf("peel without a vertex count: %+v, %v after %d passes; want an error before any pass", res, err, x.Passes())
	}
}
