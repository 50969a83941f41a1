// Package core implements the paper's streaming triangle estimators:
//
//   - Algorithm 1 ("IdealEstimator"): the warm-up three-pass estimator in the
//     degree-oracle model of Section 4, with degree-proportional edge
//     sampling.
//   - Algorithm 2 ("EstimateTriangle"): the main six-pass estimator of
//     Section 5, which simulates degree-proportional sampling by first taking
//     a uniform edge sample R and re-weighting inside R.
//   - Algorithm 3 ("IsAssigned"/"Assignment"): the triangle-to-edge assignment
//     rule of Section 5.1 that keeps the per-edge assigned count bounded by
//     O(κ/ε), which is what turns the m·∆-type variance of naive edge
//     sampling into the m·κ bound of Theorem 1.2.
//
// All estimators run against the stream.Stream interface, account their
// retained state in words through a stream.SpaceMeter, and derive their
// sample sizes from Config. As in the paper, the degeneracy bound κ is an
// input (Config.Kappa ≥ 1): finding one for a stream that comes without it
// is the caller's job, and the triangle facade does it once per estimate.
package core

import (
	"fmt"
	"math"

	"degentri/internal/stream"
)

// AssignmentRule selects how discovered triangles are attributed to edges.
type AssignmentRule int

const (
	// RuleLowestCount is the paper's rule (Algorithm 3): estimate t_e for each
	// non-heavy, non-costly edge of the triangle with s neighborhood samples
	// and assign the triangle to the edge with the smallest estimate; leave it
	// unassigned when even the smallest estimate exceeds κ/(2ε).
	RuleLowestCount AssignmentRule = iota
	// RuleNone disables assignment: every discovered triangle counts through
	// every edge and the final estimate is divided by three. This is the
	// ablation corresponding to plain degree-weighted edge sampling, whose
	// variance degrades to m·J/T on graphs such as the book graph (§1.2).
	RuleNone
	// RuleLowestDegree assigns each triangle to its minimum-degree edge (ties
	// broken lexicographically). It needs no extra sampling passes but its
	// per-edge assigned count is not bounded by κ in general; it is the rule
	// suggested for the degree-oracle warm-up in Section 4.
	RuleLowestDegree
)

// String implements fmt.Stringer.
func (r AssignmentRule) String() string {
	switch r {
	case RuleLowestCount:
		return "lowest-triangle-count"
	case RuleNone:
		return "none"
	case RuleLowestDegree:
		return "lowest-degree"
	default:
		return fmt.Sprintf("AssignmentRule(%d)", int(r))
	}
}

// Config carries the parameters of the estimators. The zero value is not
// usable; start from DefaultConfig and adjust.
//
// The paper sets r = Θ((log n/ε²)·m·τmax/T), ℓ = Θ((log n/ε²)·m·d_R/(rT)) and
// s = Θ((log n/ε²)·mκ/T). The Θ-constants proven in the paper are far larger
// than what is needed in practice, so the config exposes them as explicit
// multipliers (CR, CL, CS) with practical defaults; the experiment harness
// additionally sweeps them to produce the accuracy/space trade-off curves.
type Config struct {
	// Epsilon is the target relative error ε ∈ (0, 1).
	Epsilon float64
	// Kappa is an upper bound on the degeneracy κ(G), at least 1.
	// Experiments pass the exact value; the triangle facade passes the
	// caller's bound, the exact κ, or the streaming peel's κ̂
	// (internal/degen).
	Kappa int
	// TGuess is the current guess (lower bound) for the triangle count used
	// to size the samples. AutoEstimate drives it by geometric search.
	TGuess int64
	// CR, CL, CS scale the sizes of the uniform edge sample R, the number of
	// degree-proportional instances ℓ, and the per-edge assignment sample s.
	CR, CL, CS float64
	// Rule selects the triangle-to-edge assignment behaviour.
	Rule AssignmentRule
	// Groups, when > 1, splits the ℓ instances into this many groups and
	// returns the median of the group means ("median of the mean").
	Groups int
	// Seed seeds all randomness of one estimator run.
	Seed uint64
	// MaxSpaceWords, when positive, aborts a run whose accounted space
	// exceeds the limit (the Markov-inequality cutoff discussed in Section 3).
	MaxSpaceWords int64
	// ROverride, LOverride, SOverride, when positive, bypass the formulas and
	// fix r, ℓ, s directly. The experiment harness uses these for controlled
	// space sweeps.
	ROverride, LOverride, SOverride int
	// Workers bounds the concurrent shard workers of the sharded pass engine
	// inside a single run; 0 selects GOMAXPROCS, 1 forces sequential passes.
	// Estimates are bit-identical for a fixed seed at any worker count (the
	// shard grid and all RNG streams are independent of Workers).
	Workers int
	// SpecWidth bounds how many geometric-search probes AutoEstimate runs
	// speculatively in one fused batch on the scan scheduler: pass k of every
	// probe in a batch shares one physical scan, so a batch of w probes costs
	// roughly the scans of the slowest probe instead of w×. 0 selects the
	// default (2); 1 restores the strictly sequential search. The accepted
	// estimate is identical at any width — probe seeds are keyed by attempt
	// index and acceptance examines probes in sequential order — only Scans
	// (and the concurrent space peak) change.
	SpecWidth int
	// Retry is the transient-I/O retry policy of the run's physical scans.
	// The zero value disables retry (errors propagate on first failure);
	// stream.DefaultRetryPolicy() is the robust default the CLIs use. Retry
	// never changes results — failed reads resume at the exact position they
	// broke, and all in-pass randomness is keyed by (seed, passKey, instance,
	// shard), never by attempt — it only changes whether a flaky read kills
	// the run. Result.Retries reports the recoveries performed.
	Retry stream.RetryPolicy
}

// DefaultConfig returns a practical configuration for the given degeneracy
// bound and triangle-count guess.
func DefaultConfig(epsilon float64, kappa int, tGuess int64) Config {
	return Config{
		Epsilon: epsilon,
		Kappa:   kappa,
		TGuess:  tGuess,
		CR:      4,
		CL:      4,
		CS:      4,
		Rule:    RuleLowestCount,
		Groups:  1,
		Seed:    1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("core: epsilon must be in (0,1), got %v", c.Epsilon)
	}
	if c.Kappa < 1 {
		return fmt.Errorf("core: kappa must be >= 1, got %d", c.Kappa)
	}
	if c.TGuess < 1 {
		return fmt.Errorf("core: TGuess must be >= 1, got %d", c.TGuess)
	}
	if c.CR <= 0 || c.CL <= 0 || c.CS <= 0 {
		return fmt.Errorf("core: sample multipliers must be positive (CR=%v CL=%v CS=%v)", c.CR, c.CL, c.CS)
	}
	if c.Groups < 0 {
		return fmt.Errorf("core: groups must be non-negative, got %d", c.Groups)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: workers must be non-negative, got %d", c.Workers)
	}
	if c.SpecWidth < 0 || c.SpecWidth > 16 {
		return fmt.Errorf("core: SpecWidth must be in [0, 16], got %d", c.SpecWidth)
	}
	switch c.Rule {
	case RuleLowestCount, RuleNone, RuleLowestDegree:
	default:
		return fmt.Errorf("core: unknown assignment rule %d", int(c.Rule))
	}
	return nil
}

// sampleSizeR returns r, the size of the uniform edge sample, for a stream
// with m edges: r = CR · mκ / TGuess, clamped to [1, m].
func (c Config) sampleSizeR(m int) int {
	if c.ROverride > 0 {
		return clampInt(c.ROverride, 1, maxInt(m, 1))
	}
	r := c.CR * float64(m) * float64(c.Kappa) / float64(c.TGuess)
	return clampInt(int(math.Ceil(r)), 1, maxInt(m, 1))
}

// sampleSizeL returns ℓ, the number of degree-proportional instances, given
// the realized d_R of the sample: ℓ = CL · m·d_R / (r·TGuess), clamped to at
// least 1.
func (c Config) sampleSizeL(m, r int, dR int64) int {
	if c.LOverride > 0 {
		return c.LOverride
	}
	if dR <= 0 {
		return 1
	}
	l := c.CL * float64(m) * float64(dR) / (float64(r) * float64(c.TGuess))
	return clampInt(int(math.Ceil(l)), 1, 1<<26)
}

// sampleSizeS returns s, the number of neighborhood samples per edge used by
// the assignment procedure: s = CS · mκ / TGuess, clamped to at least 1.
func (c Config) sampleSizeS(m int) int {
	if c.SOverride > 0 {
		return c.SOverride
	}
	s := c.CS * float64(m) * float64(c.Kappa) / float64(c.TGuess)
	return clampInt(int(math.Ceil(s)), 1, 1<<26)
}

// heavyEdgeDegreeThreshold is the degree above which Algorithm 3 refuses to
// estimate t_e (line 9): d_e > mκ²/(ε²·T).
func (c Config) heavyEdgeDegreeThreshold(m int) float64 {
	return float64(m) * float64(c.Kappa) * float64(c.Kappa) /
		(c.Epsilon * c.Epsilon * float64(c.TGuess))
}

// assignmentCutoff is the threshold κ/(2ε) of Algorithm 3 line 18: if even
// the smallest estimated t_e exceeds it the triangle stays unassigned.
func (c Config) assignmentCutoff() float64 {
	return float64(c.Kappa) / (2 * c.Epsilon)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
