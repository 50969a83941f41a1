package core_test

// Fusion-equivalence pins for the pass-fusion scan scheduler: running the
// estimator's passes through scheduler clients (fused) must reproduce the
// unfused runs bit for bit — same Estimate, same realized randomness, same
// logical pass accounting — at every worker count (1/2/4/8) and over every
// stream backend (in-memory, text file, binary .bex). The unfused runs are
// themselves pinned against the PR 4 goldens by golden_test.go and
// equivalence_test.go, so transitively the fused results match those goldens
// too. Only the physical accounting may differ: Scans (fewer, shared) and —
// for concurrent fusion — SpaceWords (concurrently-live states add up).

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"degentri/internal/core"
	"degentri/internal/passes"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

func TestFusedSoloClientMatchesDirectRun(t *testing.T) {
	graphs := goldenGraphs()
	dir := t.TempDir()

	type backend struct {
		name string
		open func() (stream.Stream, func(), error)
	}
	backends := map[string][]backend{}
	for name, w := range graphs {
		txt := filepath.Join(dir, name+".txt")
		bex := filepath.Join(dir, name+stream.BexExt)
		f, err := os.Create(txt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.WriteEdgeList(f, stream.FromGraphShuffled(w.g, w.streamSeed)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := stream.WriteBex2File(bex, stream.FromGraphShuffled(w.g, w.streamSeed), 64); err != nil {
			t.Fatal(err)
		}
		g, seed := w.g, w.streamSeed
		openFile := func(path string) func() (stream.Stream, func(), error) {
			return func() (stream.Stream, func(), error) {
				src, err := stream.OpenAuto(path)
				if err != nil {
					return nil, nil, err
				}
				return src, func() { src.Close() }, nil
			}
		}
		backends[name] = []backend{
			{"memory", func() (stream.Stream, func(), error) {
				return stream.FromGraphShuffled(g, seed), func() {}, nil
			}},
			{"text", openFile(txt)},
			{"bex", openFile(bex)},
		}
	}

	for _, gc := range goldenCases {
		w := graphs[gc.workload]
		cfg := core.DefaultConfig(0.1, w.g.Degeneracy(), w.g.TriangleCount())
		cfg.CR, cfg.CL, cfg.CS = 16, 16, 8
		cfg.Rule = gc.rule
		cfg.Seed = gc.seed

		for _, workers := range []int{1, 2, 4, 8} {
			for _, b := range backends[gc.workload] {
				runCfg := cfg
				runCfg.Workers = workers
				label := gc.workload + "/" + b.name

				// Unfused reference: the plain Run (pinned against the PR 4
				// goldens by the equivalence suite).
				src, closeSrc, err := b.open()
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.EstimateTriangles(src, runCfg)
				closeSrc()
				if err != nil {
					t.Fatalf("%s/%v/seed=%d/workers=%d: unfused: %v", label, gc.rule, gc.seed, workers, err)
				}

				// Fused: the same run as the single client of a scheduler.
				src, closeSrc, err = b.open()
				if err != nil {
					t.Fatal(err)
				}
				m, known := src.Len()
				prelude := 0
				if !known {
					m, err = stream.CountEdges(src)
					if err != nil {
						t.Fatal(err)
					}
					prelude = 1
				}
				sch := sched.New(src, m, workers)
				c := sch.NewClient()
				got, err := core.NewEstimator(runCfg).RunOn(c)
				c.Done()
				closeSrc()
				if err != nil {
					t.Fatalf("%s/%v/seed=%d/workers=%d: fused: %v", label, gc.rule, gc.seed, workers, err)
				}
				// A solo client fuses nothing, so every logical pass was one
				// scan and the full Result must match after aligning the
				// accounting the scheduler's owner carries (prelude, Scans).
				if sch.Scans() != got.Passes {
					t.Errorf("%s/%v/seed=%d/workers=%d: solo client: %d scans for %d passes",
						label, gc.rule, gc.seed, workers, sch.Scans(), got.Passes)
				}
				got.Passes += prelude
				got.Scans = want.Scans
				if got != want {
					t.Errorf("%s/%v/seed=%d/workers=%d: fused result diverges:\n  fused   %+v\n  unfused %+v",
						label, gc.rule, gc.seed, workers, got, want)
				}
			}
		}
	}
}

// TestFusedConcurrentClientsMatchSoloRuns fuses two estimator runs with
// different seeds onto one scheduler: each must reproduce its solo result
// bit for bit, and the pair must cost the scans of one run, not two.
func TestFusedConcurrentClientsMatchSoloRuns(t *testing.T) {
	graphs := goldenGraphs()
	w := graphs["pref-attach-k4"]
	cfg := core.DefaultConfig(0.1, w.g.Degeneracy(), w.g.TriangleCount())
	cfg.CR, cfg.CL, cfg.CS = 16, 16, 8
	seeds := []uint64{1, 42}

	solo := make([]core.Result, len(seeds))
	for i, seed := range seeds {
		runCfg := cfg
		runCfg.Seed = seed
		res, err := core.EstimateTriangles(stream.FromGraphShuffled(w.g, w.streamSeed), runCfg)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = res
	}

	for _, workers := range []int{1, 4} {
		src := stream.FromGraphShuffled(w.g, w.streamSeed)
		m, _ := src.Len()
		sch := sched.New(src, m, workers)
		clients := make([]*sched.Client, len(seeds))
		for i := range seeds {
			clients[i] = sch.NewClient()
		}
		fused := make([]core.Result, len(seeds))
		errs := make([]error, len(seeds))
		var wg sync.WaitGroup
		for i, seed := range seeds {
			wg.Add(1)
			go func(i int, seed uint64) {
				defer wg.Done()
				defer clients[i].Done()
				runCfg := cfg
				runCfg.Seed = seed
				runCfg.Workers = workers
				fused[i], errs[i] = core.NewEstimator(runCfg).RunOn(clients[i])
			}(i, seed)
		}
		wg.Wait()
		for i := range seeds {
			if errs[i] != nil {
				t.Fatalf("workers=%d seed=%d: %v", workers, seeds[i], errs[i])
			}
			got := fused[i]
			got.Scans = solo[i].Scans // physical accounting belongs to the scheduler
			if got != solo[i] {
				t.Errorf("workers=%d seed=%d: fused run diverges from solo:\n  fused %+v\n  solo  %+v",
					workers, seeds[i], got, solo[i])
			}
		}
		maxPasses := 0
		for _, r := range fused {
			if r.Passes > maxPasses {
				maxPasses = r.Passes
			}
		}
		if sch.Scans() != maxPasses {
			t.Errorf("workers=%d: two fused runs cost %d scans, want %d (the slower run's passes)",
				workers, sch.Scans(), maxPasses)
		}
		// Concurrently-live states add up: the group peak must cover both
		// runs' steady states, i.e. strictly exceed either solo peak.
		if peak := sch.Meter().Peak(); peak <= solo[0].SpaceWords || peak <= solo[1].SpaceWords {
			t.Errorf("workers=%d: group peak %d does not exceed solo peaks %d/%d",
				workers, peak, solo[0].SpaceWords, solo[1].SpaceWords)
		}
	}
}

// TestAutoEstimateSpecWidthInvariance pins that the speculative fused search
// accepts exactly the sequential search's result: at every speculation width
// the Estimate and logical Passes are identical over every backend; only
// Scans (down) and SpaceWords (concurrent peak, up) move.
func TestAutoEstimateSpecWidthInvariance(t *testing.T) {
	graphs := goldenGraphs()
	w := graphs["wheel"]
	dir := t.TempDir()
	txt := filepath.Join(dir, "wheel.txt")
	bex := filepath.Join(dir, "wheel"+stream.BexExt)
	f, err := os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.WriteEdgeList(f, stream.FromGraphShuffled(w.g, w.streamSeed)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.WriteBex2File(bex, stream.FromGraphShuffled(w.g, w.streamSeed), 64); err != nil {
		t.Fatal(err)
	}

	open := map[string]func() (stream.Stream, func(), error){
		"memory": func() (stream.Stream, func(), error) {
			return stream.FromGraphShuffled(w.g, w.streamSeed), func() {}, nil
		},
		"text": func() (stream.Stream, func(), error) {
			src, err := stream.OpenAuto(txt)
			if err != nil {
				return nil, nil, err
			}
			return src, func() { src.Close() }, nil
		},
		"bex": func() (stream.Stream, func(), error) {
			src, err := stream.OpenAuto(bex)
			if err != nil {
				return nil, nil, err
			}
			return src, func() { src.Close() }, nil
		},
	}

	cfg := core.DefaultConfig(0.15, w.g.Degeneracy(), 1)
	cfg.CR, cfg.CL, cfg.CS = 8, 8, 8
	cfg.Seed = 7

	for name, openSrc := range open {
		for _, workers := range []int{1, 4} {
			var base core.Result
			var baseScans int
			for i, width := range []int{1, 2, 4} {
				src, closeSrc, err := openSrc()
				if err != nil {
					t.Fatal(err)
				}
				runCfg := cfg
				runCfg.Workers = workers
				runCfg.SpecWidth = width
				res, err := core.AutoEstimate(src, runCfg)
				closeSrc()
				if err != nil {
					t.Fatalf("%s/workers=%d/width=%d: %v", name, workers, width, err)
				}
				if i == 0 {
					base, baseScans = res, res.Scans
					// Width 1 is the strictly sequential search: every
					// logical pass was its own scan.
					if res.Scans != res.Passes {
						t.Errorf("%s/workers=%d: width 1 has scans=%d != passes=%d",
							name, workers, res.Scans, res.Passes)
					}
					continue
				}
				cmp := res
				cmp.Scans = base.Scans
				cmp.SpaceWords = base.SpaceWords
				if cmp != base {
					t.Errorf("%s/workers=%d/width=%d diverges from sequential:\n  got  %+v\n  want %+v",
						name, workers, width, res, base)
				}
				if res.Scans >= baseScans {
					t.Errorf("%s/workers=%d/width=%d: %d scans, want fewer than sequential's %d",
						name, workers, width, res.Scans, baseScans)
				}
				if res.SpaceWords < base.SpaceWords {
					t.Errorf("%s/workers=%d/width=%d: concurrent peak %d below sequential peak %d",
						name, workers, width, res.SpaceWords, base.SpaceWords)
				}
			}
		}
	}
}

// TestRunChargesItsExecutorsMeter pins the one-meter contract: a run charges
// the meter of the executor it runs on, reports that meter's peak as
// SpaceWords and checks MaxSpaceWords against that meter alone. Two runs
// forked from one client each fit a budget that their sum exceeds: both
// complete as they do alone, and the parent's peak is the sum of their
// words.
func TestRunChargesItsExecutorsMeter(t *testing.T) {
	w := goldenGraphs()["pref-attach-k4"]
	cfg := core.DefaultConfig(0.1, w.g.Degeneracy(), w.g.TriangleCount())
	cfg.CR, cfg.CL, cfg.CS = 16, 16, 8
	seeds := []uint64{1, 42}
	open := func() (stream.Stream, int) {
		src := stream.FromGraphShuffled(w.g, w.streamSeed)
		m, _ := src.Len()
		return src, m
	}

	solo := make([]core.Result, len(seeds))
	for i, seed := range seeds {
		src, m := open()
		x := passes.NewDirect(src, m, 2)
		runCfg := cfg
		runCfg.Seed = seed
		res, err := core.NewEstimator(runCfg).RunOn(x)
		if err != nil {
			t.Fatal(err)
		}
		if peak := x.Meter().Peak(); res.SpaceWords == 0 || peak != res.SpaceWords {
			t.Errorf("seed=%d: executor meter peaked at %d, SpaceWords %d", seed, peak, res.SpaceWords)
		}
		solo[i] = res
	}

	cfg.MaxSpaceWords = max(solo[0].SpaceWords, solo[1].SpaceWords)
	src, m := open()
	parent := sched.New(src, m, 2).NewClient()
	defer parent.Done()
	fused := make([]core.Result, len(seeds))
	errs := make([]error, len(seeds))
	parent.Fork(len(seeds), func(i int, c *sched.Client) {
		runCfg := cfg
		runCfg.Seed = seeds[i]
		fused[i], errs[i] = core.NewEstimator(runCfg).RunOn(c)
	})
	for i := range seeds {
		if errs[i] != nil || fused[i] != solo[i] {
			t.Errorf("seed=%d under budget %d: forked run %+v (%v), alone %+v", seeds[i], cfg.MaxSpaceWords, fused[i], errs[i], solo[i])
		}
	}
	if peak, sum := parent.Meter().Peak(), solo[0].SpaceWords+solo[1].SpaceWords; peak != sum {
		t.Errorf("parent meter peaked at %d, want the runs' sum %d", peak, sum)
	}
}
