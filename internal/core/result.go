package core

import "fmt"

// Result is the outcome of one estimator run together with its resource
// accounting, which is what the experiment tables report.
type Result struct {
	// Estimate is the estimated triangle count T̂.
	Estimate float64
	// Passes is the number of *logical* stream passes the run performed —
	// the paper's pass metric, what the sequential algorithm needs.
	Passes int
	// Scans is the number of *physical* scans of the underlying stream that
	// served those passes. Unfused runs have Scans == Passes; runs whose
	// passes were fused onto a scan scheduler (AutoEstimate's geometric
	// search, exp fused trials) perform fewer scans than passes, and
	// speculative probe batches may scan work the sequential algorithm
	// would have skipped — Scans reports the physical truth either way.
	Scans int
	// SpaceWords is the peak number of retained machine words (sampled
	// edges, counters, reservoirs, memo entries): the peak of the meter the
	// run charged, which for a run on an executor is the executor's meter
	// (passes.Executor.Meter), holding that run's words alone.
	SpaceWords int64
	// OracleQueries counts degree-oracle queries (only nonzero for the
	// degree-oracle estimators of Section 4).
	OracleQueries int64
	// EdgesInStream is m, discovered or confirmed during the run.
	EdgesInStream int
	// SampledEdges is r, the size of the uniform edge sample R (Algorithm 2).
	SampledEdges int
	// Instances is ℓ, the number of degree-proportional estimator instances.
	Instances int
	// AssignmentSamples is s, the per-edge neighborhood sample size used by
	// the assignment procedure.
	AssignmentSamples int
	// TrianglesFound is the number of estimator instances whose edge–vertex
	// pair closed into a triangle (before the assignment filter).
	TrianglesFound int
	// TrianglesAssigned is the number of instances whose triangle was
	// assigned to the instance's own edge (these contribute Y_i = 1).
	TrianglesAssigned int
	// DistinctTriangles is the number of distinct triangles on which the
	// assignment procedure was invoked.
	DistinctTriangles int
	// DR is d_R = Σ_{e∈R} d_e, from pass 2 or the degree oracle.
	DR int64
	// Aborted reports that the run hit Config.MaxSpaceWords and stopped
	// early; Estimate is then meaningless.
	Aborted bool
	// Rejected reports that a geometric-search probe stopped after pass 4:
	// even with every closed wedge assigned, its estimate would have been
	// below its guess. It has no estimate (Estimate is 0).
	Rejected bool
	// Retries counts the transient-I/O recoveries the run's physical scans
	// performed under Config.Retry. A healed scan is bit-identical to an
	// undisturbed one, so retries never change Estimate — this is resource
	// accounting, reported next to Passes/Scans. For fused runs the count is
	// scheduler-wide: a recovery on a shared scan is visible to every rider.
	Retries int
	// Partial reports that the run's deadline expired (or it was cancelled)
	// mid-search and Estimate is the best completed probe so far rather than
	// the converged answer — the geometric search's deadline analogue of the
	// MaxSpaceWords abort. The estimate is still a genuine estimator output
	// with its certificate (SampledEdges, Instances, DR), just from a larger
	// guess than the search would have settled on.
	Partial bool
}

// String summarizes the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("T̂=%.1f (passes=%d, scans=%d, space=%d words, r=%d, ℓ=%d, s=%d, found=%d, assigned=%d)",
		r.Estimate, r.Passes, r.Scans, r.SpaceWords, r.SampledEdges, r.Instances, r.AssignmentSamples,
		r.TrianglesFound, r.TrianglesAssigned)
}
