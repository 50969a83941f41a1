package exp

import (
	"fmt"

	"degentri/internal/degen"
)

// E12DegeneracyApprox measures the streaming degeneracy approximation that
// the facade now uses whenever the caller supplies no κ bound: for every
// standard and skewed workload it reports the certified upper bound κ̂ and
// density lower bound next to the exact κ, the pass count of the peel, and
// the O(n)-word footprint next to the Θ(m) a materializing computation would
// retain. The contract under test: κ ≤ κ̂ ≤ 2(1+ε)·κ — rows violating either
// side fail the experiment hard, like E5 does for the Chiba–Nishizeki bounds.
func E12DegeneracyApprox(scale Scale) ([]*Table, error) {
	eps := degen.DefaultEpsilon
	table := NewTable("E12",
		fmt.Sprintf("Streaming degeneracy approximation (peel slack ε=%.2f, certified factor %.1f)", eps, 2*(1+eps)),
		"workload", "n", "m", "κ", "κ̂", "κ̂/κ", "lower", "rounds", "passes", "space(words)", "Θ(m) baseline")

	ws := append(StandardWorkloads(scale), SkewedWorkloads(scale)...)
	for _, w := range ws {
		res, err := degen.Estimate(w.Stream(0), degen.Options{})
		if err != nil {
			return nil, fmt.Errorf("E12 %s: %w", w.Name, err)
		}
		if res.Kappa < w.Kappa {
			return nil, fmt.Errorf("E12 %s: κ̂=%d below the exact κ=%d (upper-bound certificate violated)",
				w.Name, res.Kappa, w.Kappa)
		}
		if limit := 2 * (1 + eps) * float64(w.Kappa); float64(res.Kappa) > limit {
			return nil, fmt.Errorf("E12 %s: κ̂=%d above the certified factor %.1f·κ=%.1f",
				w.Name, res.Kappa, 2*(1+eps), limit)
		}
		if res.LowerBound > w.Kappa {
			return nil, fmt.Errorf("E12 %s: density lower bound %d above the exact κ=%d",
				w.Name, res.LowerBound, w.Kappa)
		}
		table.AddRow(w.Name,
			FormatCount(int64(w.N)), FormatCount(int64(w.M)), fmt.Sprintf("%d", w.Kappa),
			fmt.Sprintf("%d", res.Kappa), FormatFloat(float64(res.Kappa)/float64(max(w.Kappa, 1))),
			fmt.Sprintf("%d", res.LowerBound), fmt.Sprintf("%d", res.Rounds), fmt.Sprintf("%d", res.Passes),
			FormatCount(res.SpaceWords), FormatCount(int64(2*w.M)))
	}
	table.AddNote("κ̂ is what Estimate/EstimateFile size their samples with when no bound is supplied; both certificates (κ ≤ κ̂ ≤ %.1fκ, lower ≤ κ) fail the experiment hard if violated.", 2*(1+eps))
	table.AddNote("space is the peel's O(n) words (degree array + alive bitset); the Θ(m) column is the edge storage alone of the materializing fallback this replaced.")
	return []*Table{table}, nil
}
