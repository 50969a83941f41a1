// Package clique implements the paper's future-work direction (Conjecture
// 7.1): a constant-pass streaming estimator for the number of k-cliques in a
// low-degeneracy graph, generalizing the triangle estimator of Section 5.
//
// The estimator follows the same blueprint as Algorithm 2: sample a uniform
// edge multiset R, compute edge degrees, draw degree-proportional instances
// from R, and for each instance draw k−2 independent uniform vertices from
// the neighborhood of the light endpoint; the instance succeeds when the
// sampled vertices are distinct and, together with the edge's endpoints, form
// a k-clique. Each success contributes d_e^{k-3}, and the estimate is scaled
// so that every clique is counted once through each of its C(k,2) edges.
// For k = 3 this degenerates exactly to the triangle estimator without the
// assignment rule; the per-edge clique counts are bounded by O(κ^{k-2})
// (Chiba–Nishizeki), which is what the conjectured O~(mκ^{k-2}/T_k) space
// bound reflects.
//
// Like the core estimator, every pass runs on the shared pass framework
// (internal/passes) over the sharded pass engine: instances live in one flat
// array, the k−2 neighbor samples of each instance come from a bank
// (passes.SampleNeighborBanks) whose randomness is keyed by (Seed, instance,
// shard) under this package's pass keys, and per-shard state merges in shard
// order — so the estimate is deterministic at any worker count.
//
// This is an extension beyond the paper's proven results: the estimator is
// unbiased (a calculation identical to Section 4's), but the repository makes
// no claim that its variance matches the conjecture on all graphs — the E11
// experiment measures it empirically on the low-degeneracy families.
package clique

import (
	"context"
	"fmt"
	"math"

	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/sampling"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// RNG stream keys of the sharded passes (the (seed, passKey, mergeKey)
// contract of internal/passes).
const (
	rngKeyNeighbors      = 30 // per-(instance, shard) neighbor banks
	rngKeyNeighborsMerge = 31 // per-instance shard-merge draws
)

// Config parameterizes the k-clique estimator.
type Config struct {
	// K is the clique size (K >= 3).
	K int
	// Epsilon is the target relative error (documentation only; the sample
	// sizes are controlled by the overrides or the guess-based formulas).
	Epsilon float64
	// Kappa is an upper bound on the degeneracy.
	Kappa int
	// CliqueGuess is a lower-bound guess for the k-clique count, used to size
	// the samples.
	CliqueGuess int64
	// CR and CL scale the edge-sample size r and the instance count ℓ.
	CR, CL float64
	// ROverride and LOverride bypass the formulas when positive.
	ROverride, LOverride int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the concurrent shard workers inside each pass; 0 selects
	// GOMAXPROCS. The estimate is identical at any worker count.
	Workers int
}

// DefaultConfig returns a practical configuration.
func DefaultConfig(k int, epsilon float64, kappa int, guess int64) Config {
	return Config{K: k, Epsilon: epsilon, Kappa: kappa, CliqueGuess: guess, CR: 8, CL: 8, Seed: 1}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.K < 3 {
		return fmt.Errorf("clique: K must be >= 3, got %d", c.K)
	}
	if c.K > 8 {
		return fmt.Errorf("clique: K = %d unreasonably large for this estimator", c.K)
	}
	// Each range test is written so NaN fails it.
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		return fmt.Errorf("clique: epsilon must be in (0,1), got %v", c.Epsilon)
	}
	if c.Kappa < 1 {
		return fmt.Errorf("clique: kappa must be >= 1, got %d", c.Kappa)
	}
	if c.CliqueGuess < 1 {
		return fmt.Errorf("clique: CliqueGuess must be >= 1, got %d", c.CliqueGuess)
	}
	if !(c.CR > 0 && c.CR <= math.MaxFloat64 && c.CL > 0 && c.CL <= math.MaxFloat64) {
		return fmt.Errorf("clique: CR and CL must be positive and finite (CR=%v CL=%v)", c.CR, c.CL)
	}
	if c.Workers < 0 {
		return fmt.Errorf("clique: Workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Result reports the estimate and resource usage. Passes is the logical
// pass count (the paper's metric); Scans is the physical scan count, equal
// to Passes for standalone runs and filled by the scheduler's owner for
// fused runs (EstimateOn leaves it zero).
type Result struct {
	Estimate      float64
	Passes        int
	Scans         int
	SpaceWords    int64
	EdgesInStream int
	SampledEdges  int
	Instances     int
	CliquesFound  int
}

// sampleSizeR returns r = CR · m·κ^{k-2} / guess, clamped to [1, m].
func (c Config) sampleSizeR(m int) int {
	if c.ROverride > 0 {
		if c.ROverride > m {
			return m
		}
		return c.ROverride
	}
	r := c.CR * float64(m) * math.Pow(float64(c.Kappa), float64(c.K-2)) / float64(c.CliqueGuess)
	return clampInt(int(math.Ceil(r)), 1, maxInt(m, 1))
}

// sampleSizeL returns ℓ = CL · m·d_R·κ^{k-3} / (r·guess), clamped to >= 1.
func (c Config) sampleSizeL(m, r int, dR int64) int {
	if c.LOverride > 0 {
		return c.LOverride
	}
	if dR <= 0 {
		return 1
	}
	l := c.CL * float64(m) * float64(dR) * math.Pow(float64(c.Kappa), float64(c.K-3)) /
		(float64(r) * float64(c.CliqueGuess))
	return clampInt(int(math.Ceil(l)), 1, 1<<26)
}

// instance is one degree-proportional estimator instance, stored flat (no
// per-instance pointers) so the hot loops walk one contiguous array.
type instance struct {
	edge    graph.Edge
	edgeDeg int
	light   int
	other   int
	// The distinct neighbors among the k-2 draws of pass 3, in draw order
	// (the merger's W); all k-2 draws are distinct when it holds k-2.
	sampled []int
	// Adjacency requirements discovered in the closure pass.
	required int
	matched  int
	distinct bool
}

// Estimate runs the k-clique estimator over the stream. It uses four passes
// (plus a counting pass when the stream length is unknown), each its own
// physical scan: Result.Scans == Result.Passes.
func Estimate(src stream.Stream, cfg Config) (Result, error) {
	return EstimateCtx(context.Background(), src, cfg, stream.RetryPolicy{})
}

// EstimateCtx is Estimate under a cancellation context and a transient-I/O
// retry policy: a cancelled run aborts within one batch boundary, returning
// the context error wrapped with the scan position; transient read failures
// are healed under retry with bit-identical results. The run is the one
// client of a scheduler from sched.Open. A stream that does not know its
// length costs one counting pass first, which Passes and Scans include,
// whether it succeeds or fails.
func EstimateCtx(ctx context.Context, src stream.Stream, cfg Config, retry stream.RetryPolicy) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	sch, err := sched.Open(ctx, src, cfg.Workers, retry)
	opening := sch.Scans()
	var res Result
	if err == nil {
		c := sch.NewClient()
		res, err = EstimateOn(c, cfg)
		c.Done()
	}
	res.Passes += opening
	res.Scans = sch.Scans()
	return res, err
}

// EstimateOn runs the k-clique estimator's passes through the given executor
// (the stream length and worker bound are the executor's). When the executor
// is a scan-scheduler client the passes fuse with other pending clients;
// results are bit-identical either way. The executor carries this run
// alone: the run charges its words to the executor's meter, which must hold
// no other run's words, and reports that meter's peak as
// Result.SpaceWords; the meter's ancestors count the words toward the
// concurrent peak of everything fused with it.
func EstimateOn(x passes.Executor, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	rng := sampling.NewRNG(cfg.Seed)
	meter := x.Meter()
	res := Result{}
	m := x.M()
	startPasses := x.Passes()
	finishPasses := func() { res.Passes = x.Passes() - startPasses }

	res.EdgesInStream = m
	if m == 0 {
		return res, nil
	}

	// Pass 1: uniform edge sample (with replacement), sharded over disjoint
	// position ranges. The passes poll the executor's context every batch;
	// this check stops a cancelled run before it starts scanning at all.
	if cerr := x.Context().Err(); cerr != nil {
		finishPasses()
		return res, fmt.Errorf("clique: run cancelled: %w", context.Cause(x.Context()))
	}
	r := cfg.sampleSizeR(m)
	res.SampledEdges = r
	R, err := passes.SampleUniformEdges(x, rng, r)
	if err != nil {
		finishPasses()
		return res, err
	}
	meter.Charge(int64(len(R)) * stream.WordsPerEdge)

	// Pass 2: degrees of endpoints of R, per-shard forks of a dense sorted
	// counter merged in shard order.
	endpoints := make([]int, 0, 2*len(R))
	for _, e := range R {
		endpoints = append(endpoints, int(e.U), int(e.V))
	}
	vertexDeg := graph.NewSortedCounter(endpoints)
	meter.Charge(int64(vertexDeg.Len()) * stream.WordsPerCounter)
	if err := passes.CountDegrees(x, vertexDeg); err != nil {
		finishPasses()
		return res, err
	}
	edgeDegs := make([]int64, len(R))
	var dR int64
	for i, e := range R {
		if e.U == e.V {
			// A self-loop lies in no clique: d_e = 0, so no instance draws it.
			continue
		}
		du, _ := vertexDeg.Get(int(e.U))
		dv, _ := vertexDeg.Get(int(e.V))
		de := du
		if dv < de {
			de = dv
		}
		edgeDegs[i] = int64(de)
		dR += int64(de)
	}
	if dR == 0 {
		finishPasses()
		res.SpaceWords = meter.Peak()
		return res, nil
	}

	// Instances proportional to d_e.
	l := cfg.sampleSizeL(m, r, dR)
	res.Instances = l
	cum, err := sampling.NewCumulativeSampler(edgeDegs)
	if err != nil {
		finishPasses()
		return res, err
	}
	extra := cfg.K - 2
	instances := make([]instance, l)
	lights := make([]int, l)
	for i := 0; i < l; i++ {
		idx := cum.Sample(rng)
		e := R[idx]
		inst := &instances[i]
		inst.edge = e
		inst.edgeDeg = int(edgeDegs[idx])
		u, v := int(e.U), int(e.V)
		du, _ := vertexDeg.Get(u)
		dv, _ := vertexDeg.Get(v)
		if du <= dv {
			inst.light, inst.other = u, v
		} else {
			inst.light, inst.other = v, u
		}
		lights[i] = inst.light
	}
	lightGroups := graph.NewVertexGroups(lights)
	meter.Charge(int64(l) * int64(6+2*extra) * stream.WordsPerScalar)

	// Pass 3: k-2 independent uniform neighbors of the light endpoint, via
	// per-(instance, shard) sample banks merged in shard order.
	banks, err := passes.SampleNeighborBanks(
		x, lightGroups, l, extra,
		cfg.Seed, rngKeyNeighbors, rngKeyNeighborsMerge)
	if err != nil {
		finishPasses()
		return res, err
	}
	for i := range instances {
		if banks[i].Has() {
			instances[i].sampled = banks[i].W
		}
	}

	// Pass 4: verify all remaining adjacencies of each candidate clique.
	// Every distinct candidate needs (k-2)(k-1)/2 checks; pre-size for the
	// worst case of all instances being candidates.
	checks := extra * (extra + 1) / 2
	needKeys := make([]graph.Edge, 0, l*checks)
	needInst := make([]int32, 0, l*checks)
	for i := range instances {
		instances[i].prepare(i, extra, &needKeys, &needInst)
	}
	needed := graph.NewEdgeIndex(needKeys)
	meter.Charge(int64(needed.Keys()) * (stream.WordsPerEdge + stream.WordsPerScalar))
	if needed.Keys() > 0 {
		matched, err := passes.ClosureBits(x, needed, len(needInst), nil)
		if err != nil {
			finishPasses()
			return res, err
		}
		for it, instIdx := range needInst {
			if matched.Test(it) {
				instances[instIdx].matched++
			}
		}
	}

	// Final estimate.
	var sum float64
	for i := range instances {
		inst := &instances[i]
		if !inst.distinct || inst.matched < inst.required {
			continue
		}
		res.CliquesFound++
		sum += math.Pow(float64(inst.edgeDeg), float64(cfg.K-3))
	}
	meanV := sum / float64(l)
	pairs := float64(cfg.K*(cfg.K-1)) / 2
	factorial := 1.0
	for i := 2; i <= extra; i++ {
		factorial *= float64(i)
	}
	res.Estimate = float64(m) / float64(r) * float64(dR) * meanV / (factorial * pairs)
	finishPasses()
	res.SpaceWords = meter.Peak()
	return res, nil
}

// prepare validates distinctness and registers the adjacency checks the
// closure pass must confirm: every sampled vertex must be adjacent to the
// heavy endpoint, and all sampled vertices must be pairwise adjacent.
// (Adjacency to the light endpoint holds by construction.) The extra = k-2
// draws are distinct offers exactly when the bank drew extra of them; they
// are distinct vertices unless parallel edges offered one vertex twice, which
// the pair checks find and withdraw. Requirements are appended as (edge key,
// instance index) pairs for a graph.EdgeIndex.
func (inst *instance) prepare(idx, extra int, needKeys *[]graph.Edge, needInst *[]int32) {
	if len(inst.sampled) != extra {
		return
	}
	for _, w := range inst.sampled {
		if w < 0 || w == inst.other || w == inst.light {
			return
		}
	}
	start := len(*needKeys)
	for i, w := range inst.sampled {
		*needKeys = append(*needKeys, graph.NewEdge(inst.other, w))
		*needInst = append(*needInst, int32(idx))
		for _, v := range inst.sampled[i+1:] {
			if v == w {
				*needKeys, *needInst = (*needKeys)[:start], (*needInst)[:start]
				return
			}
			*needKeys = append(*needKeys, graph.NewEdge(w, v))
			*needInst = append(*needInst, int32(idx))
		}
	}
	inst.distinct = true
	inst.required = len(*needKeys) - start
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
