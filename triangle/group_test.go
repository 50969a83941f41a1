package triangle_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"degentri/internal/clique"
	"degentri/internal/core"
	"degentri/internal/degen"
	"degentri/internal/gen"
	"degentri/internal/passes"
	"degentri/internal/stream"
	"degentri/triangle"
)

// TestScanGroupMatchesEstimateFile is the group's load-bearing guarantee:
// concurrent requests fused onto one group's shared scans return exactly the
// estimate a standalone EstimateFile call with the same (seed, options)
// returns — and the fusion actually pays: the group's physical scans stay
// well below the sum of the standalone runs' scans.
func TestScanGroupMatchesEstimateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.txt")
	writeHolmeKimFile(t, path, 6000, 5)

	seeds := []uint64{1, 7, 42, 1001}
	type solo struct {
		res triangle.Result
	}
	solos := make([]solo, len(seeds))
	soloScans := 0
	for i, seed := range seeds {
		res, err := triangle.EstimateFile(path, triangle.Options{Seed: seed})
		if err != nil {
			t.Fatalf("solo seed %d: %v", seed, err)
		}
		solos[i] = solo{res: res}
		soloScans += res.Scans
	}

	g, err := triangle.OpenScanGroup(context.Background(), path, triangle.GroupOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	results := make([]triangle.Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			results[i], errs[i] = g.Estimate(context.Background(), triangle.Options{Seed: seed})
		}(i, seed)
	}
	wg.Wait()

	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("group seed %d: %v", seed, errs[i])
		}
		want, got := solos[i].res, results[i]
		if got.Estimate != want.Estimate {
			t.Errorf("seed %d: group estimate %v != standalone %v", seed, got.Estimate, want.Estimate)
		}
		if got.DegeneracyBound != want.DegeneracyBound || !got.DegeneracyApprox {
			t.Errorf("seed %d: group κ = (%d, approx=%v), standalone (%d, approx=%v)",
				seed, got.DegeneracyBound, got.DegeneracyApprox, want.DegeneracyBound, want.DegeneracyApprox)
		}
		if got.Edges != want.Edges {
			t.Errorf("seed %d: group edges %d != standalone %d", seed, got.Edges, want.Edges)
		}
	}

	// Coalescing pin: the group amortized the prelude (one counting scan, one
	// κ̂ peel) and fused the four searches' waves; the standalone runs each
	// paid everything alone.
	if g.Scans() >= soloScans {
		t.Errorf("group scans = %d, not below the %d scans of %d standalone runs", g.Scans(), soloScans, len(seeds))
	}
	if g.Live() != 0 {
		t.Errorf("Live() = %d after all requests returned, want 0", g.Live())
	}
	if g.Carried() <= g.Scans() {
		t.Errorf("Carried() = %d ≤ Scans() = %d: no wave fused more than one request", g.Carried(), g.Scans())
	}
}

// TestScanGroupBudgetAbortMirrorsLibrary pins the admission-relevant abort
// path: a MaxSpaceWords budget smaller than the κ̂ peel's footprint aborts a
// group request with exactly the flags the standalone path reports, even
// though the group resolved κ̂ once before the request arrived.
func TestScanGroupBudgetAbortMirrorsLibrary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "abort.txt")
	writeHolmeKimFile(t, path, 3000, 4)

	opts := triangle.Options{Seed: 3, MaxSpaceWords: 8} // far below the O(n) peel state
	want, err := triangle.EstimateFile(path, opts)
	if err != nil {
		t.Fatalf("standalone: %v", err)
	}
	if !want.Aborted {
		t.Fatalf("standalone run with budget 8 did not abort (space=%d); test premise broken", want.SpaceWords)
	}
	// The abort still reports the κ̂ it derived and the peel's footprint.
	if !want.DegeneracyApprox || want.DegeneracyBound < 1 {
		t.Errorf("standalone abort should report the streamed κ̂ it derived: %+v", want)
	}
	if want.SpaceWords <= opts.MaxSpaceWords {
		t.Errorf("standalone abort accounts %d words, want more than the budget %d", want.SpaceWords, opts.MaxSpaceWords)
	}

	g, err := triangle.OpenScanGroup(context.Background(), path, triangle.GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got, err := g.Estimate(context.Background(), opts)
	if err != nil {
		t.Fatalf("group: %v", err)
	}
	if !got.Aborted || got.Estimate != want.Estimate || got.DegeneracyBound != want.DegeneracyBound || got.SpaceWords != want.SpaceWords {
		t.Errorf("group abort = %+v, want mirror of standalone %+v", got, want)
	}
}

// TestScanGroupDegeneracyAndCliques covers the two non-search request kinds:
// the shared κ̂ resolution is single-flight and matches what requests see,
// and a clique request fused on the group is bit-identical to the same
// configuration executed unfused over a private stream.
func TestScanGroupDegeneracyAndCliques(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cliques.txt")
	gr := gen.HolmeKim(2500, 5, 0.6, 11)
	if err := stream.WriteGraphFile(path, gr, "group clique test"); err != nil {
		t.Fatal(err)
	}

	g, err := triangle.OpenScanGroup(context.Background(), path, triangle.GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Concurrent κ̂ requests single-flight onto one peel.
	const callers = 6
	kappas := make([]triangle.GroupKappa, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := g.Degeneracy(context.Background())
			if err != nil {
				t.Errorf("Degeneracy caller %d: %v", i, err)
				return
			}
			kappas[i] = k
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if kappas[i] != kappas[0] {
			t.Fatalf("caller %d saw κ̂ %+v, caller 0 saw %+v", i, kappas[i], kappas[0])
		}
	}
	if kappas[0].Kappa < 1 || kappas[0].LowerBound > kappas[0].Kappa {
		t.Fatalf("incoherent κ̂ certificate: %+v", kappas[0])
	}

	// Fused clique request ≡ unfused execution of the identical config.
	truth := gr.CliqueCount(4)
	if truth < 1 {
		t.Fatal("generator produced no 4-cliques; pick different parameters")
	}
	copts := triangle.CliqueOptions{K: 4, CliqueGuess: truth / 2, Seed: 5}
	got, err := g.EstimateCliques(context.Background(), copts)
	if err != nil {
		t.Fatal(err)
	}

	fs, err := stream.OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	m, err := stream.CountEdges(fs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clique.DefaultConfig(4, 0.1, got.DegeneracyBound, truth/2)
	cfg.Seed = 5
	ref, err := clique.EstimateOn(passes.NewDirect(fs, m, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != ref.Estimate {
		t.Errorf("fused clique estimate %v != unfused %v", got.Estimate, ref.Estimate)
	}
}

// TestScanGroupSpaceGaugesComeDown pins that a request hands its words back
// to the group when it returns: after each of a sequence of requests (two
// searches, a fixed guess and a clique request, κ supplied so no peel runs)
// the group retains nothing, and its peak is the largest SpaceWords any one
// request reported, not the running total of every word ever charged. With
// κ̂ streamed, the group retains exactly its n-word degree array.
func TestScanGroupSpaceGaugesComeDown(t *testing.T) {
	gr := gen.BarabasiAlbert(3000, 4, 23)
	path := filepath.Join(t.TempDir(), "ba.bex")
	if _, err := stream.WriteBex2File(path, stream.FromGraph(gr), 0); err != nil {
		t.Fatal(err)
	}
	g, err := triangle.OpenScanGroup(context.Background(), path, triangle.GroupOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	ctx := context.Background()
	const kappa = 4
	cliques := gr.CliqueCount(4)
	if cliques < 1 {
		t.Fatal("generator produced no 4-cliques; pick different parameters")
	}
	requests := []struct {
		name string
		run  func() (triangle.Result, error)
	}{
		{"search seed 1", func() (triangle.Result, error) {
			return g.Estimate(ctx, triangle.Options{Seed: 1, Degeneracy: kappa})
		}},
		{"search seed 2", func() (triangle.Result, error) {
			return g.Estimate(ctx, triangle.Options{Seed: 2, Degeneracy: kappa})
		}},
		{"fixed guess", func() (triangle.Result, error) {
			return g.Estimate(ctx, triangle.Options{Seed: 3, Degeneracy: kappa, TriangleGuess: gr.TriangleCount()})
		}},
		{"4-cliques", func() (triangle.Result, error) {
			return g.EstimateCliques(ctx, triangle.CliqueOptions{K: 4, CliqueGuess: cliques / 2, Seed: 4, Degeneracy: kappa})
		}},
	}
	var largest int64
	for _, r := range requests {
		res, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.SpaceWords <= 0 {
			t.Fatalf("%s: SpaceWords = %d", r.name, res.SpaceWords)
		}
		largest = max(largest, res.SpaceWords)
		if cur := g.CurrentSpaceWords(); cur != 0 {
			t.Errorf("after %s: CurrentSpaceWords = %d with nothing in flight, want 0", r.name, cur)
		}
		if peak := g.PeakSpaceWords(); peak != largest {
			t.Errorf("after %s: PeakSpaceWords = %d, want the largest request's %d", r.name, peak, largest)
		}
	}

	// With κ̂ streamed, the group keeps the peel's round-1 degree array: n
	// words stay charged after every request, on top of which each request
	// counts, and the peel itself reports its two arrays, its bitset and the
	// bitset's rank base.
	gs, err := triangle.OpenScanGroup(ctx, path, triangle.GroupOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	n := int64(gr.NumVertices())
	streamed := []func() (triangle.Result, error){
		func() (triangle.Result, error) { return gs.Estimate(ctx, triangle.Options{Seed: 1}) },
		func() (triangle.Result, error) {
			return gs.Estimate(ctx, triangle.Options{Seed: 3, TriangleGuess: gr.TriangleCount()})
		},
		func() (triangle.Result, error) {
			return gs.EstimateCliques(ctx, triangle.CliqueOptions{K: 4, CliqueGuess: cliques / 2, Seed: 4})
		},
	}
	largest = 0
	for i, run := range streamed {
		res, err := run()
		if err != nil {
			t.Fatalf("streamed request %d: %v", i, err)
		}
		largest = max(largest, res.SpaceWords)
		if cur := gs.CurrentSpaceWords(); cur != n {
			t.Errorf("after streamed request %d: CurrentSpaceWords = %d, want the degree array's n = %d", i, cur, n)
		}
	}
	k, err := gs.Degeneracy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Later rounds count round 1's survivors: the vertices whose degree
	// exceeds the first cut, 2(1+ε)·m/n at the default ε.
	cut := 2 * (1 + degen.DefaultEpsilon) * float64(gr.NumEdges()) / float64(n)
	survivors := int64(0)
	for v := range gr.NumVertices() {
		if float64(gr.Degree(v)) > cut {
			survivors++
		}
	}
	if survivors == 0 {
		t.Fatal("no vertex survives the peel's first round; pick a graph whose peel runs later rounds")
	}
	if want := n + survivors + 2*((n+63)/64); k.SpaceWords != want {
		t.Errorf("peel SpaceWords = %d, want n + %d survivors + 2⌈n/64⌉ = %d", k.SpaceWords, survivors, want)
	}
	if peak, want := gs.PeakSpaceWords(), max(k.SpaceWords, n+largest); peak != want {
		t.Errorf("streamed PeakSpaceWords = %d, want max(peel %d, n + largest request %d) = %d", peak, k.SpaceWords, largest, want)
	}
}

// TestScanGroupRejectsCliqueSizeBeforeScanning checks that a clique size
// outside [3, 8] fails before the group resolves κ̂: the group makes no scan.
func TestScanGroupRejectsCliqueSizeBeforeScanning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ba.bex")
	if _, err := stream.WriteBex2File(path, stream.FromGraph(gen.BarabasiAlbert(3000, 4, 7)), 0); err != nil {
		t.Fatal(err)
	}
	g, err := triangle.OpenScanGroup(context.Background(), path, triangle.GroupOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, k := range []int{2, 9} {
		if _, err := g.EstimateCliques(context.Background(), triangle.CliqueOptions{K: k, CliqueGuess: 1}); err == nil {
			t.Errorf("K = %d was accepted", k)
		}
	}
	if g.Scans() != 0 {
		t.Errorf("rejecting bad clique sizes cost %d scans, want 0", g.Scans())
	}
}

// TestScanGroupExpiredContext pins fail-fast semantics: a request whose ctx
// is already dead never joins a wave and errors out branded — on the peel,
// the search and the fixed-guess path alike — leaving the group healthy for
// the next request.
func TestScanGroupExpiredContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "expired.txt")
	writeHolmeKimFile(t, path, 2000, 4)
	g, err := triangle.OpenScanGroup(context.Background(), path, triangle.GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	for _, opts := range []triangle.Options{
		{Seed: 2}, // the group has not peeled yet: the κ̂ peel fails
		{Seed: 2, Degeneracy: 4},
		{Seed: 2, Degeneracy: 4, TriangleGuess: 100},
	} {
		_, err := g.Estimate(ctx, opts)
		if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, core.ErrDeadline) {
			t.Errorf("κ=%d guess=%d: error %v, want one wrapping context.DeadlineExceeded and core.ErrDeadline",
				opts.Degeneracy, opts.TriangleGuess, err)
		}
		if g.Live() != 0 {
			t.Fatalf("Live() = %d after failed request, want 0", g.Live())
		}
	}

	res, err := g.Estimate(context.Background(), triangle.Options{Seed: 2})
	if err != nil || res.Estimate <= 0 {
		t.Fatalf("group unusable after an expired-ctx request: %v, %+v", err, res)
	}
}
