package exp_test

// Acceptance pins for the fused trial runner (ISSUE 5): R fused trials on a
// file stream perform at most the physical scans of one trial, and every
// per-trial Result is bit-identical to running that trial unfused.

import (
	"path/filepath"
	"testing"

	"degentri/internal/core"
	"degentri/internal/exp"
	"degentri/internal/gen"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// trialCfg is the per-trial config used by both the fused and unfused runs:
// fixed guess, keyed seed per trial (the CoreRunner convention).
func trialCfg(base core.Config, trial int) core.Config {
	cfg := base
	cfg.Seed = base.Seed + uint64(trial)*7919
	return cfg
}

// TestFusedTrialsScanBudgetOnFile is the acceptance criterion: R = 8 trials
// over one .bex file, fused, must cost at most the physical scans of one
// trial (its logical passes plus the shared counting scan is the generous
// upper bound; the pinned expectation is exactly max over trials).
func TestFusedTrialsScanBudgetOnFile(t *testing.T) {
	g := gen.HolmeKim(6000, 5, 0.6, 41)
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.bex")
	if _, err := stream.WriteBex2File(path, stream.FromGraph(g), 128); err != nil {
		t.Fatal(err)
	}
	const trials = 8
	base := core.DefaultConfig(0.1, g.Degeneracy(), g.TriangleCount())
	base.CR, base.CL, base.CS = 16, 16, 8
	base.Seed = 3

	// Unfused references: each trial alone on its own stream.
	unfused := make([]core.Result, trials)
	for i := range unfused {
		src, err := stream.OpenBex2(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.EstimateTriangles(src, trialCfg(base, i))
		src.Close()
		if err != nil {
			t.Fatalf("unfused trial %d: %v", i, err)
		}
		unfused[i] = res
	}

	src, err := stream.OpenBex2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	m, known := src.Len()
	if !known {
		t.Fatal("bex length must be known")
	}
	ft, err := exp.RunTrialsFused(src, m, trials, 4, func(c *sched.Client, trial int) (core.Result, error) {
		est := core.NewEstimator(trialCfg(base, trial))
		return est.RunOn(c)
	})
	if err != nil {
		t.Fatal(err)
	}

	maxPasses := 0
	for i, res := range ft.Results {
		want := unfused[i]
		got := res
		got.Scans = want.Scans // physical accounting is the fused run's, checked below
		if got != want {
			t.Errorf("trial %d: fused result diverges from unfused:\n  fused   %+v\n  unfused %+v", i, got, want)
		}
		if res.Passes > maxPasses {
			maxPasses = res.Passes
		}
	}
	// The pin: R fused trials ≤ the physical scans of one trial.
	if ft.Scans > maxPasses {
		t.Errorf("%d fused trials cost %d scans, want at most one trial's %d passes", trials, ft.Scans, maxPasses)
	}
	// And the concurrent space peak covers all live trials at once.
	var soloPeak int64
	for _, res := range unfused {
		if res.SpaceWords > soloPeak {
			soloPeak = res.SpaceWords
		}
	}
	if ft.PeakSpaceWords <= soloPeak {
		t.Errorf("group peak %d does not exceed the largest solo peak %d (concurrent states must add)",
			ft.PeakSpaceWords, soloPeak)
	}
}
