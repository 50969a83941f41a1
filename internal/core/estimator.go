package core

import (
	"context"
	"fmt"

	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/sampling"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// RNG stream keys of the sharded passes (the (seed, passKey, mergeKey)
// contract of internal/passes): every draw an estimator makes inside a
// sharded pass comes from a stream keyed by (Config.Seed, pass key,
// instance/slot index[, shard index]), so the realized randomness — and with
// it the estimate — does not depend on worker scheduling. The estimator's
// root RNG is only consumed sequentially between passes (sample positions,
// instance selection).
const (
	rngKeyPass3      = 3 // per-(instance, shard) neighbor reservoirs
	rngKeyPass3Merge = 4 // per-instance shard-merge draws
	rngKeyPass5      = 5 // per-(slot, shard) assignment sample banks
	rngKeyPass5Merge = 6 // per-slot shard-merge draws
)

// instance is the state of one of the ℓ degree-proportional estimator
// instances of Algorithm 2.
type instance struct {
	edge    graph.Edge
	edgeDeg int
	light   int
	other   int
	// Pass 3 outcome: the sampled neighbor of the light endpoint.
	w    int
	hasW bool
	// Pass 4 outcome.
	closed bool
	tri    graph.Triangle
	// Final outcome after the assignment filter.
	y bool
}

// Estimator runs the main six-pass algorithm (Algorithm 2 + Algorithm 3) on
// an edge stream. Create one with NewEstimator and call Run; an Estimator is
// single-use.
//
// The per-edge hot loops of passes 2–6 use the dense sorted structures of the
// graph package (SortedCounter, VertexGroups, EdgeIndex, TriangleIndex) and
// run on the shared pass framework (internal/passes) over the sharded pass
// engine: each pass is split over the fixed stream.NumShards grid, processed
// by up to Config.Workers concurrent workers, and merged in shard order, so
// the estimate for a fixed seed is deterministic at any worker count.
//
// Run executes the passes as the only client of its own scan scheduler
// (internal/sched), so each pass is its own physical scan. RunOn instead
// executes them through a caller-supplied scheduler client, whose passes
// share physical scans with whatever other runs are fused onto the same
// scheduler, with bit-identical results (all in-pass randomness is keyed,
// never positional). Either way the run tees its private space meter into
// the executor's group meter (passes.Executor.Meter), so fused runs report
// the peak of concurrently retained words; budget enforcement
// (Config.MaxSpaceWords) stays on the private meter — fusion never changes
// whether an individual run aborts.
//
// A run handed every vertex's degree (UseDegrees) is in the paper's Section 4
// degree-oracle model: it looks degrees up instead of running pass 2 and
// pass 4's apex count, so a full run makes five passes, with the same
// estimate bits.
type Estimator struct {
	cfg   Config
	rng   *sampling.RNG
	meter *stream.SpaceMeter
	// deg is the degree oracle (nil: passes 2 and 4 count degrees).
	deg []int32
	// rejectBelowGuess stops the run after pass 4 when no assignment can
	// lift its estimate to Config.TGuess (a geometric-search probe).
	rejectBelowGuess bool
}

// NewEstimator returns an estimator for the given configuration. The
// configuration is validated on Run.
func NewEstimator(cfg Config) *Estimator {
	return &Estimator{cfg: cfg, rng: sampling.NewRNG(cfg.Seed), meter: stream.NewSpaceMeter()}
}

// UseDegrees hands the run a degree oracle: deg[v] is v's degree in the
// stream under passes.CountDegrees' rule (self-loops skipped, duplicates
// counted), and an ID outside the array has degree 0. The run then skips
// pass 2 and pass 4's apex count; its estimate is bit-identical to a run
// that counts. The array's words belong to its owner, not to the run, and
// the run only reads it. nil keeps the counting passes.
func (est *Estimator) UseDegrees(deg []int32) { est.deg = deg }

// oracleDegree looks v up in the degree oracle.
func (est *Estimator) oracleDegree(v int) (int, bool) {
	if uint(v) < uint(len(est.deg)) {
		return int(est.deg[v]), true
	}
	return 0, true
}

// EstimateTriangles is a convenience wrapper: NewEstimator(cfg).Run(src).
func EstimateTriangles(src stream.Stream, cfg Config) (Result, error) {
	return NewEstimator(cfg).Run(src)
}

// Run executes the estimator against the stream and returns the estimate and
// resource accounting. The stream must replay the same edge order on every
// pass (all stream.Stream implementations in this repository do). Every
// logical pass is one physical scan: Result.Scans == Result.Passes.
func (est *Estimator) Run(src stream.Stream) (Result, error) {
	return est.RunCtx(context.Background(), src)
}

// RunCtx is Run under a cancellation context: the run aborts within one
// batch boundary of ctx firing, returning the context error wrapped with the
// scan position and classified as ErrDeadline/ErrAborted. Transient I/O
// errors are healed under Config.Retry, with recoveries counted in
// Result.Retries.
//
// The run is the one client of a scheduler from sched.Open. A stream that
// does not know its length costs one counting pass first (the paper assumes
// m is known when setting parameters), which Passes and Scans include,
// whether it succeeds or fails.
func (est *Estimator) RunCtx(ctx context.Context, src stream.Stream) (Result, error) {
	if err := est.cfg.Validate(); err != nil {
		return Result{}, err
	}
	sch, err := sched.Open(ctx, src, est.cfg.Workers, est.cfg.Retry)
	opening := sch.Scans()
	var res Result
	if err == nil {
		c := sch.NewClient()
		res, err = est.runOn(c)
		c.Done()
	}
	res.Passes += opening
	res.Scans, res.Retries = sch.Scans(), sch.Retries()
	return res, WrapAbort(err)
}

// RunOn executes the estimator's passes through the given executor, whose
// stream must hold exactly x.M() edges. Result.Passes counts this run's
// logical passes; Result.Scans is left zero because physical scans belong to
// the executor's owner (Run fills it for a run of its own).
func (est *Estimator) RunOn(x passes.Executor) (Result, error) {
	if err := est.cfg.Validate(); err != nil {
		return Result{}, err
	}
	return est.runOn(x)
}

// runOn is the estimator body: every pass is declared against the executor,
// which decides how the stream is read.
func (est *Estimator) runOn(x passes.Executor) (Result, error) {
	est.meter.Tee(x.Meter())
	cfg := est.cfg
	res := Result{}
	m := x.M()
	startPasses := x.Passes()
	startRetries := x.Retries()
	finishPasses := func() {
		res.Passes = x.Passes() - startPasses
		res.Retries = x.Retries() - startRetries
	}
	// The scans themselves poll the context every batch; this catches a
	// cancellation that lands in the between-pass bookkeeping, so a dead run
	// never starts another scan.
	checkCtx := func(stage string) error {
		if cerr := x.Context().Err(); cerr != nil {
			return fmt.Errorf("core: estimator cancelled before %s: %w", stage, context.Cause(x.Context()))
		}
		return nil
	}

	res.EdgesInStream = m
	if m == 0 {
		return res, ErrNoEdges
	}

	// ----- Pass 1: uniform edge sample R (multiset, with replacement). -----
	if cerr := checkCtx("pass 1 (edge sampling)"); cerr != nil {
		finishPasses()
		return res, cerr
	}
	r := cfg.sampleSizeR(m)
	res.SampledEdges = r
	R, err := passes.SampleUniformEdges(x, est.rng, r)
	if err != nil {
		finishPasses()
		return res, err
	}
	est.meter.Charge(int64(len(R)) * stream.WordsPerEdge)
	if est.overBudget() {
		res.Aborted = true
		finishPasses()
		res.SpaceWords = est.meter.Peak()
		return res, nil
	}

	// ----- Pass 2: degrees of the endpoints of R, unless an oracle has them. -----
	degreeOf := est.oracleDegree
	var vertexDeg *graph.SortedCounter
	if est.deg == nil {
		endpoints := make([]int, 0, 2*len(R))
		for _, e := range R {
			endpoints = append(endpoints, e.U, e.V)
		}
		vertexDeg = graph.NewSortedCounter(endpoints)
		est.meter.Charge(int64(vertexDeg.Len()) * stream.WordsPerCounter)
		if err := passes.CountDegrees(x, vertexDeg); err != nil {
			finishPasses()
			return res, err
		}
		degreeOf = vertexDeg.Get
	}

	edgeDegs := make([]int64, len(R))
	var dR int64
	for i, e := range R {
		if e.U == e.V {
			// A self-loop has no wedge: d_e = 0, so no instance draws it.
			continue
		}
		du, _ := degreeOf(e.U)
		dv, _ := degreeOf(e.V)
		de := du
		if dv < de {
			de = dv
		}
		edgeDegs[i] = int64(de)
		dR += int64(de)
	}
	res.DR = dR
	if dR == 0 {
		// No sampled edge has a neighbor beyond itself; the estimate is 0.
		finishPasses()
		res.SpaceWords = est.meter.Peak()
		return res, nil
	}

	// ----- Draw ℓ instances from R proportional to d_e. -----
	l := cfg.sampleSizeL(m, r, dR)
	res.Instances = l
	cum, err := sampling.NewCumulativeSampler(edgeDegs)
	if err != nil {
		finishPasses()
		return res, err
	}
	instances := make([]instance, l)
	lights := make([]int, l)
	for i := 0; i < l; i++ {
		idx := cum.Sample(est.rng)
		e := R[idx]
		inst := &instances[i]
		inst.edge = e
		inst.edgeDeg = int(edgeDegs[idx])
		du, _ := degreeOf(e.U)
		dv, _ := degreeOf(e.V)
		if du <= dv {
			inst.light, inst.other = e.U, e.V
		} else {
			inst.light, inst.other = e.V, e.U
		}
		lights[i] = inst.light
	}
	lightGroups := graph.NewVertexGroups(lights)
	est.meter.Charge(int64(l) * 6 * stream.WordsPerScalar)
	if est.overBudget() {
		res.Aborted = true
		finishPasses()
		res.SpaceWords = est.meter.Peak()
		return res, nil
	}

	// ----- Pass 3: uniform neighbor of the light endpoint, per instance. -----
	neighbors, err := passes.SampleNeighbors(
		x, lightGroups, l, cfg.Seed, rngKeyPass3, rngKeyPass3Merge)
	if err != nil {
		finishPasses()
		return res, err
	}
	for i := range instances {
		if neighbors[i].Has() {
			instances[i].w = neighbors[i].W
			instances[i].hasW = true
		}
	}

	// ----- Pass 4: closure checks, and apex degrees unless an oracle has them. -----
	// Pre-size to the live instance count: every live instance contributes
	// exactly one closure key and one apex.
	live := 0
	for i := range instances {
		inst := &instances[i]
		if !inst.hasW || inst.w == inst.other {
			inst.hasW = false
			continue
		}
		live++
	}
	closureKeys := make([]graph.Edge, 0, live)
	closureInst := make([]int32, 0, live)
	apexes := make([]int, 0, live)
	for i := range instances {
		inst := &instances[i]
		if !inst.hasW {
			continue
		}
		closureKeys = append(closureKeys, graph.NewEdge(inst.other, inst.w))
		closureInst = append(closureInst, int32(i))
		apexes = append(apexes, inst.w)
	}
	closure := graph.NewEdgeIndex(closureKeys)
	est.meter.Charge(int64(closure.Keys()) * (stream.WordsPerEdge + stream.WordsPerScalar))
	var apexDeg *graph.SortedCounter
	if est.deg == nil {
		apexDeg = graph.NewSortedCounter(apexes)
		est.meter.Charge(int64(apexDeg.Len()) * stream.WordsPerCounter)
		// Degree lookup covering both R endpoints and apex vertices.
		degreeOf = func(v int) (int, bool) {
			if d, ok := vertexDeg.Get(v); ok {
				return d, true
			}
			return apexDeg.Get(v)
		}
	}

	closedBits, err := passes.ClosureBits(x, closure, len(closureInst), apexDeg)
	if err != nil {
		finishPasses()
		return res, err
	}
	for it, instIdx := range closureInst {
		if closedBits.Test(it) {
			instances[instIdx].closed = true
		}
	}

	// Collect the discovered triangles.
	values := make([]float64, len(instances))
	for i := range instances {
		inst := &instances[i]
		if inst.closed {
			inst.tri = graph.NewTriangle(inst.edge.U, inst.edge.V, inst.w)
			res.TrianglesFound++
			values[i] = 1
		}
	}

	// Early rejection: Y_i ≤ closed_i for every instance, so the estimate
	// expression over the closed indicators bounds any estimate passes 5–6
	// can produce. A probe whose bound is below its guess would be rejected
	// anyway; it stops here, with no estimate.
	if est.rejectBelowGuess && cfg.scaledEstimate(m, r, dR, values) < float64(cfg.TGuess) {
		res.Rejected = true
		finishPasses()
		res.SpaceWords = est.meter.Peak()
		return res, nil
	}

	// ----- Assignment (Algorithm 3): passes 5 and 6 for the paper's rule. -----
	if cerr := checkCtx("assignment (passes 5-6)"); cerr != nil {
		finishPasses()
		return res, cerr
	}
	assignments, aerr := est.assign(x, &res, instances, degreeOf)
	if aerr != nil {
		finishPasses()
		return res, aerr
	}
	if res.Aborted {
		finishPasses()
		res.SpaceWords = est.meter.Peak()
		return res, nil
	}

	// ----- Final estimate. -----
	for i := range instances {
		inst := &instances[i]
		y := 0.0
		if inst.closed {
			switch cfg.Rule {
			case RuleNone:
				inst.y = true
			default:
				assignedTo, ok := assignments.lookup(inst.tri)
				inst.y = ok && assignedTo == inst.edge.Normalize()
			}
			if inst.y {
				res.TrianglesAssigned++
				y = 1
			}
		}
		values[i] = y
	}
	res.Estimate = cfg.scaledEstimate(m, r, dR, values)
	finishPasses()
	res.SpaceWords = est.meter.Peak()
	return res, nil
}

// scaledEstimate is Algorithm 2's estimate (m/r)·d_R·MedianOfMeans(Y) over
// the instances' indicators, divided by three when every triangle counts
// through all its edges (RuleNone). It is monotone in every indicator, so
// over the closed indicators it bounds the estimate from above.
func (c Config) scaledEstimate(m, r int, dR int64, values []float64) float64 {
	estimate := float64(m) / float64(r) * float64(dR) * sampling.MedianOfMeans(values, c.Groups)
	if c.Rule == RuleNone {
		estimate /= 3
	}
	return estimate
}

func (est *Estimator) overBudget() bool {
	return est.cfg.MaxSpaceWords > 0 && est.meter.Current() > est.cfg.MaxSpaceWords
}
