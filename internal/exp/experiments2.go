package exp

import (
	"fmt"
	"math"

	"degentri/internal/baseline"
	"degentri/internal/core"
	"degentri/internal/lowerbound"
)

// E6AssignmentProperties measures, from exact per-edge triangle counts, the
// quantities the assignment analysis controls: the fraction of ε-heavy and
// ε-costly triangles (Lemma 5.12 bounds them by O(ε)·T) and the maximum
// number of triangles the idealized assignment rule places on one edge
// (Definition 5.2 requires τ_max ≤ κ/ε).
func E6AssignmentProperties(scale Scale) ([]*Table, error) {
	epsilons := []float64{0.1, 0.2}
	table := NewTable("E6", "Assignment-rule structural properties (exact computation)",
		"workload", "ε", "T", "heavy-tri frac (≤2ε?)", "costly-tri frac (≤2ε?)",
		"assigned frac", "τ_max", "κ/ε bound")

	ws := StandardWorkloads(scale)
	ws = append(ws, SkewedWorkloads(scale)[1]) // the book graph stresses heaviness
	for _, w := range ws {
		if w.T == 0 {
			continue
		}
		g := w.Graph
		te := g.EdgeTriangleCountMap()
		triangles := g.ListTriangles()
		for _, eps := range epsilons {
			heavyThresh := float64(w.Kappa) / eps
			costlyThresh := float64(w.M) * float64(w.Kappa) / (eps * float64(w.T))

			heavyTris, costlyTris, assigned := 0, 0, 0
			tauCount := make(map[int64]int64) // keyed by packed edge
			var tauMax int64
			for _, tri := range triangles {
				edges := tri.Edges()
				allHeavy := true
				anyCostly := false
				bestIdx := -1
				var bestTe int64
				for i, e := range edges {
					cnt := te[e]
					de := int64(g.EdgeDegree(e))
					if float64(cnt) <= heavyThresh {
						allHeavy = false
					}
					if cnt > 0 && float64(de)/float64(cnt) > costlyThresh {
						anyCostly = true
					}
					if float64(cnt) <= heavyThresh && (bestIdx < 0 || cnt < bestTe) {
						bestIdx, bestTe = i, cnt
					}
				}
				if allHeavy {
					heavyTris++
				}
				if anyCostly {
					costlyTris++
				}
				if bestIdx >= 0 {
					assigned++
					key := packEdge(int(edges[bestIdx].U), int(edges[bestIdx].V))
					tauCount[key]++
					if tauCount[key] > tauMax {
						tauMax = tauCount[key]
					}
				}
			}
			heavyFrac := float64(heavyTris) / float64(w.T)
			costlyFrac := float64(costlyTris) / float64(w.T)
			if heavyFrac > 2*eps {
				return nil, fmt.Errorf("E6: heavy-triangle bound violated on %s (ε=%.2f): %.3f > %.3f",
					w.Name, eps, heavyFrac, 2*eps)
			}
			if costlyFrac > 2*eps {
				return nil, fmt.Errorf("E6: costly-triangle bound violated on %s (ε=%.2f): %.3f > %.3f",
					w.Name, eps, costlyFrac, 2*eps)
			}
			if float64(tauMax) > float64(w.Kappa)/eps {
				return nil, fmt.Errorf("E6: τ_max bound violated on %s (ε=%.2f): %d > %.1f",
					w.Name, eps, tauMax, float64(w.Kappa)/eps)
			}
			table.AddRow(w.Name, fmt.Sprintf("%.2f", eps), FormatCount(w.T),
				FormatFloat(heavyFrac), FormatFloat(costlyFrac),
				FormatFloat(float64(assigned)/float64(w.T)),
				fmt.Sprintf("%d", tauMax), FormatFloat(float64(w.Kappa)/eps))
		}
	}
	table.AddNote("The experiment fails hard if any Lemma 5.12 / Definition 5.2 bound is violated.")
	return []*Table{table}, nil
}

func packEdge(u, v int) int64 { return int64(u)<<32 | int64(uint32(v)) }

// E7LowerBound builds the Theorem 6.3 hard instances across κ, verifies their
// structural guarantees, and measures the smallest sample budget at which the
// paper's estimator reliably separates the NO instance (T = p²q triangles)
// from the YES instance (triangle-free). The measured space should track
// mκ/T.
func E7LowerBound(scale Scale) ([]*Table, error) {
	table := NewTable("E7", "Lower-bound construction: structure and detection space",
		"blocks N", "κ=p", "q", "n", "m", "T(NO)", "κ(YES)", "κ(NO)", "mκ/T", "detection space (words)", "space / (mκ/T)")

	// The reduction encodes an N-bit disjointness instance; m grows linearly
	// with N while T = p²q stays fixed, so mκ/T — and, by Theorem 6.3, the
	// space needed to detect the planted triangles — grows linearly in N.
	p := 4
	q := 4
	blockSizes := []int{24, 72, 216}
	if scale == ScaleSmoke {
		blockSizes = []int{9, 18}
	}
	if scale == ScaleFull {
		blockSizes = []int{24, 72, 216, 648}
	}
	trials := 3
	if scale == ScaleSmoke {
		trials = 2
	}

	for _, blocks := range blockSizes {
		ones := blocks / 3
		yesD, err := lowerbound.NewDisjointness(blocks, ones, false, uint64(blocks))
		if err != nil {
			return nil, err
		}
		noD, err := lowerbound.NewDisjointness(blocks, ones, true, uint64(blocks+1))
		if err != nil {
			return nil, err
		}
		yes, err := lowerbound.BuildInstance(yesD, p, q)
		if err != nil {
			return nil, err
		}
		no, err := lowerbound.BuildInstance(noD, p, q)
		if err != nil {
			return nil, err
		}
		if yes.Graph.TriangleCount() != 0 {
			return nil, fmt.Errorf("E7: YES instance (N=%d) has triangles", blocks)
		}
		if no.Graph.TriangleCount() != no.ExpectedTriangles() {
			return nil, fmt.Errorf("E7: NO instance (N=%d) triangle count mismatch", blocks)
		}

		m := no.Graph.NumEdges()
		t := no.ExpectedTriangles()
		bound := float64(m) * float64(no.Graph.Degeneracy()) / float64(t)

		cfg := core.DefaultConfig(0.3, 2*p, t)
		space, err := lowerbound.MinimalDetectionSpace(p, q, blocks, ones, cfg, trials, uint64(1000+blocks))
		if err != nil {
			return nil, err
		}

		table.AddRow(fmt.Sprintf("%d", blocks), fmt.Sprintf("%d", p), fmt.Sprintf("%d", q),
			FormatCount(int64(no.Graph.NumVertices())), FormatCount(int64(m)), FormatCount(t),
			fmt.Sprintf("%d", yes.Graph.Degeneracy()), fmt.Sprintf("%d", no.Graph.Degeneracy()),
			FormatFloat(bound), FormatCount(space), FormatFloat(float64(space)/bound))
	}
	table.AddNote("Theorem 6.3 (via disjointness) predicts the detection space must grow like mκ/T ≈ Θ(N); the ratio column should stay within a modest constant band while N (and the space) grows.")
	return []*Table{table}, nil
}

// E8OracleVsStreaming compares the Section 4 warm-up (degree oracle, 3
// passes) against the full Section 5 algorithm (6 passes, no oracle) at equal
// instance budgets, reporting error, passes and oracle queries.
func E8OracleVsStreaming(scale Scale) ([]*Table, error) {
	trials := trialsFor(scale)
	table := NewTable("E8", "Degree-oracle warm-up vs. the streaming algorithm",
		"workload", "algorithm", "passes", "oracle queries", "space(words)", "median rel.err")

	for _, w := range StandardWorkloads(scale) {
		if w.T == 0 {
			continue
		}
		truth := float64(w.T)
		bound := w.TheoreticalBound()
		budget := clamp(int(math.Ceil(16*bound)), 16, 1<<20)

		oracleStats, err := RunTrials(func(trial int) (core.Result, error) {
			cfg := DefaultCoreConfig(w, 0.1)
			cfg.Seed = uint64(trial)*131 + 5
			oracle := core.NewGraphOracle(w.Graph)
			return core.IdealEstimator(w.Stream(trial), oracle, cfg, budget)
		}, trials, truth)
		if err != nil {
			return nil, err
		}

		cfg := DefaultCoreConfig(w, 0.1)
		cfg.ROverride, cfg.LOverride = budget, budget
		cfg.SOverride = clamp(budget/4, 1, 1<<20)
		streamStats, err := RunTrials(CoreRunner(w, cfg), trials, truth)
		if err != nil {
			return nil, err
		}

		table.AddRow(w.Name, "ideal (oracle, Alg.1)", fmt.Sprintf("%d", oracleStats.Passes),
			FormatCount(int64(2*w.M)), FormatCount(int64(oracleStats.MeanSpace)), FormatFloat(oracleStats.MedianRelErr))
		table.AddRow(w.Name, "streaming (Alg.2+3)", fmt.Sprintf("%d", streamStats.Passes),
			"0", FormatCount(int64(streamStats.MeanSpace)), FormatFloat(streamStats.MedianRelErr))
	}
	table.AddNote("Both run ≈8·mκ/T instances; the streaming version pays extra passes and space for simulating the oracle.")
	return []*Table{table}, nil
}

// E9KappaScaling fixes the vertex count and sweeps the degeneracy of
// preferential-attachment graphs, reporting the space the estimator needs at
// its theory budget. The space should scale (roughly) linearly in mκ/T, the
// bound of Theorem 1.2.
func E9KappaScaling(scale Scale) ([]*Table, error) {
	trials := trialsFor(scale)
	table := NewTable("E9", "Space scaling with degeneracy (preferential attachment, fixed n)",
		"workload", "κ", "m", "T", "mκ/T", "d_E/2mκ", "space(words)", "space/(mκ/T)", "median rel.err")
	for _, w := range KappaSweepWorkloads(scale) {
		truth := float64(w.T)
		stats, err := RunTrials(CoreRunner(w, DefaultCoreConfig(w, 0.1)), trials, truth)
		if err != nil {
			return nil, err
		}
		bound := w.TheoreticalBound()
		tightness := float64(w.Graph.EdgeDegreeSum()) / (2 * float64(w.M) * float64(w.Kappa))
		table.AddRow(w.Name, fmt.Sprintf("%d", w.Kappa), FormatCount(int64(w.M)), FormatCount(w.T),
			FormatFloat(bound), FormatFloat(tightness), FormatCount(int64(stats.MeanSpace)),
			FormatFloat(stats.MeanSpace/bound), FormatFloat(stats.MedianRelErr))
	}
	table.AddNote("The space/(mκ/T) column should stay within a constant band as κ varies; residual drift tracks the d_E/2mκ tightness of the Chiba–Nishizeki bound (the algorithm's space really scales with m·d̄_e/T ≤ mκ/T).")
	return []*Table{table}, nil
}

// E10OnePassComparison pits the degeneracy estimator against the one-pass
// baselines at (approximately) equal space on graphs whose maximum degree is
// far larger than their degeneracy — the regime where the m∆/T bound of
// neighbor sampling collapses while mκ/T stays small.
func E10OnePassComparison(scale Scale) ([]*Table, error) {
	trials := trialsFor(scale)
	table := NewTable("E10", "Equal-space comparison on ∆ ≫ κ graphs",
		"workload", "∆", "κ", "T", "target space", "algorithm", "space(words)", "median rel.err")

	for _, w := range SkewedWorkloads(scale) {
		if w.T == 0 || w.T*10 < int64(w.M) {
			// Triangle-sparse graphs (T < m/10) are outside the sublinear
			// regime every sketch in this comparison targets; skip them here
			// (they still appear in E5).
			continue
		}
		truth := float64(w.T)
		bound := w.TheoreticalBound()
		budget := clamp(int(math.Ceil(16*bound)), 32, w.M)

		cfg := DefaultCoreConfig(w, 0.1)
		cfg.ROverride, cfg.LOverride = budget, 2*budget
		cfg.SOverride = clamp(budget/2, 1, 1<<20)
		ours, err := RunTrials(CoreRunner(w, cfg), trials, truth)
		if err != nil {
			return nil, err
		}
		// The baselines get the same number of words our runs actually used,
		// so the comparison is at (measured) equal space.
		targetSpace := int64(ours.MeanSpace)
		if targetSpace < 64 {
			targetSpace = 64
		}

		nsCopies := clamp(int(targetSpace/10), 1, 1<<22)
		ns, err := RunTrials(func(trial int) (core.Result, error) {
			return baseline.NeighborSampling(w.Stream(trial), baseline.NeighborSamplingConfig{Estimators: nsCopies, Seed: uint64(trial + 9)})
		}, trials, truth)
		if err != nil {
			return nil, err
		}

		p := float64(targetSpace) / (2 * float64(w.M))
		if p > 1 {
			p = 1
		}
		if p <= 0 {
			p = 0.001
		}
		dl, err := RunTrials(func(trial int) (core.Result, error) {
			return baseline.Doulion(w.Stream(trial), baseline.DoulionConfig{P: p, Seed: uint64(trial + 9)})
		}, trials, truth)
		if err != nil {
			return nil, err
		}

		row := func(name string, s TrialStats) {
			table.AddRow(w.Name, fmt.Sprintf("%d", w.MaxDegree), fmt.Sprintf("%d", w.Kappa), FormatCount(w.T),
				FormatCount(targetSpace), name, FormatCount(int64(s.MeanSpace)), FormatFloat(s.MedianRelErr))
		}
		row("degeneracy (this paper)", ours)
		row("neighbor sampling", ns)
		row("doulion", dl)
	}
	table.AddNote("With ∆ ≫ κ and equal space, the degeneracy estimator should be the most accurate.")
	return []*Table{table}, nil
}
