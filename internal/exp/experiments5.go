package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"degentri/internal/core"
	"degentri/internal/gen"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// E13ScanFusion measures the pass-fusion scan scheduler on a file-backed
// stream, where wall-clock is dominated by physical scans: (a) R repeated
// trials run unfused (every logical pass its own scan) versus fused onto the
// scheduler (every scan serves all trials), and (b) the geometric search of
// AutoEstimate run sequentially (SpecWidth 1) versus speculatively fused.
// Estimates must be bit-identical between the fused and unfused executions —
// any divergence fails the experiment hard, like E5 and E12 do: fusion is an
// execution strategy, never an approximation.
func E13ScanFusion(scale Scale) ([]*Table, error) {
	n := scale.pick(3000, 40000, 170000)
	k := scale.pick(4, 6, 6)
	trials := scale.pick(4, 8, 8)
	g := gen.HolmeKim(n, k, 0.7, 131)
	m := g.NumEdges()

	dir, err := os.MkdirTemp("", "e13")
	if err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "e13.bex")
	if _, err := stream.WriteBex2File(path, stream.FromGraph(g), 0); err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}

	cfg := DefaultCoreConfig(NewWorkload("e13", g, 7), 0.2)
	cfg.Workers = 1 // isolate the scan economy from shard parallelism

	// --- Table 1: R fused trials vs R unfused trials. ---
	t1 := NewTable("E13a",
		fmt.Sprintf("Fused trials on a .bex file (m=%s, %d trials, fixed guess)", FormatCount(int64(m)), trials),
		"mode", "logical passes", "physical scans", "scan ratio", "wall", "mean T̂")

	unfusedResults := make([]core.Result, trials)
	unfusedStart := time.Now()
	unfusedScans := 0
	for i := 0; i < trials; i++ {
		src, err := stream.OpenBex2(path)
		if err != nil {
			return nil, fmt.Errorf("E13 unfused trial %d: %w", i, err)
		}
		runCfg := cfg
		runCfg.Seed = cfg.Seed + uint64(i)*7919
		res, rerr := core.EstimateTriangles(src, runCfg)
		src.Close()
		if rerr != nil {
			return nil, fmt.Errorf("E13 unfused trial %d: %w", i, rerr)
		}
		unfusedResults[i] = res
		unfusedScans += res.Scans
	}
	unfusedWall := time.Since(unfusedStart)

	src, err := stream.OpenBex2(path)
	if err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	defer src.Close()
	fusedStart := time.Now()
	ft, err := RunTrialsFused(src, m, trials, 1, func(c *sched.Client, trial int) (core.Result, error) {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + uint64(trial)*7919
		est := core.NewEstimator(runCfg)
		return est.RunOn(c)
	})
	if err != nil {
		return nil, fmt.Errorf("E13 fused trials: %w", err)
	}
	fusedWall := time.Since(fusedStart)

	totalPasses := 0
	var meanUnfused, meanFused float64
	for i := range unfusedResults {
		if ft.Results[i].Estimate != unfusedResults[i].Estimate {
			return nil, fmt.Errorf("E13: trial %d fused estimate %v != unfused %v (fusion must be bit-identical)",
				i, ft.Results[i].Estimate, unfusedResults[i].Estimate)
		}
		totalPasses += unfusedResults[i].Passes
		meanUnfused += unfusedResults[i].Estimate
		meanFused += ft.Results[i].Estimate
	}
	maxTrialPasses := 0
	for _, r := range ft.Results {
		if r.Passes > maxTrialPasses {
			maxTrialPasses = r.Passes
		}
	}
	if ft.Scans > maxTrialPasses {
		return nil, fmt.Errorf("E13: %d fused trials cost %d scans, above one trial's %d passes",
			trials, ft.Scans, maxTrialPasses)
	}
	t1.AddRow("unfused", fmt.Sprintf("%d", totalPasses), fmt.Sprintf("%d", unfusedScans),
		"1.00", unfusedWall.Round(time.Millisecond).String(), FormatFloat(meanUnfused/float64(trials)))
	t1.AddRow("fused", fmt.Sprintf("%d", totalPasses), fmt.Sprintf("%d", ft.Scans),
		FormatFloat(float64(ft.Scans)/float64(unfusedScans)),
		fusedWall.Round(time.Millisecond).String(), FormatFloat(meanFused/float64(trials)))
	t1.AddNote("R trials fused onto the scan scheduler cost at most the physical scans of one trial (enforced, hard failure); estimates are bit-identical per trial.")

	// --- Table 2: geometric search, sequential vs speculative. ---
	t2 := NewTable("E13b",
		"Geometric search on the same file: speculative probe batches share scans",
		"SpecWidth", "logical passes", "physical scans", "scan ratio", "wall", "T̂")
	autoCfg := core.DefaultConfig(0.2, g.Degeneracy(), 1)
	autoCfg.CR, autoCfg.CL, autoCfg.CS = 8, 8, 8
	autoCfg.Seed = 5
	autoCfg.Workers = 1
	var baseEstimate float64
	var baseScans int
	for i, width := range []int{1, 2, 4} {
		asrc, err := stream.OpenBex2(path)
		if err != nil {
			return nil, fmt.Errorf("E13: %w", err)
		}
		runCfg := autoCfg
		runCfg.SpecWidth = width
		start := time.Now()
		res, rerr := core.AutoEstimate(asrc, runCfg)
		wall := time.Since(start)
		asrc.Close()
		if rerr != nil {
			return nil, fmt.Errorf("E13 auto width=%d: %w", width, rerr)
		}
		if i == 0 {
			baseEstimate, baseScans = res.Estimate, res.Scans
		} else if res.Estimate != baseEstimate {
			return nil, fmt.Errorf("E13: width=%d estimate %v != sequential %v (speculation must be bit-identical)",
				width, res.Estimate, baseEstimate)
		}
		t2.AddRow(fmt.Sprintf("%d", width), fmt.Sprintf("%d", res.Passes), fmt.Sprintf("%d", res.Scans),
			FormatFloat(float64(res.Scans)/float64(baseScans)), wall.Round(time.Millisecond).String(),
			FormatFloat(res.Estimate))
	}
	t2.AddNote("width w fuses pass k of w speculative probes onto one scan; the accepted estimate is pinned equal to the sequential search's.")
	return []*Table{t1, t2}, nil
}
