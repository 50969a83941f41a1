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
