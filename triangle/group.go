package triangle

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"degentri/internal/clique"
	"degentri/internal/core"
	"degentri/internal/degen"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// GroupOptions configures a ScanGroup.
type GroupOptions struct {
	// Workers bounds the shard workers of every physical scan the group
	// performs (0 = GOMAXPROCS). Estimates are identical at any setting, so
	// this is purely a resource knob; per-request Options.Workers is ignored
	// inside a group — scan parallelism belongs to the shared scans, not to
	// the requests riding them.
	Workers int
	// RetryAttempts is the transient-I/O retry budget of the group's scans,
	// with the same semantics as Options.RetryAttempts (0 = library default,
	// negative = disabled). Scans are shared, so the policy is group-wide;
	// per-request Options.RetryAttempts is ignored.
	RetryAttempts int
	// DecodeCache serves repeat block reads of .bex v2 files from the
	// process-wide decoded-block cache; see Options.DecodeCache. A group is
	// the cache's best customer: every request riding its shared scans
	// re-reads the same blocks.
	DecodeCache bool
}

// GroupKappa is the shared degeneracy resolution of a ScanGroup: the
// streaming peel runs at most once per group and every request that needs a
// κ bound reuses it (the peel is a deterministic function of the stream, so
// per-request peels would all reproduce the same bound anyway).
type GroupKappa struct {
	// Kappa is the certified upper bound κ ≤ Kappa ≤ 2(1+ε)κ, floored at 1.
	Kappa int
	// LowerBound is the certified density lower bound ≤ κ.
	LowerBound int
	// Passes is what the resolution cost in logical passes.
	Passes int
	// SpaceWords is the peel's accounted peak space.
	SpaceWords int64
}

// ScanGroup is a long-lived estimation session over one edge file: it owns
// the stream, resolves the stream facts every request needs (edge count,
// vertex count, the κ̂ peel) exactly once, and runs each request's passes as
// clients of one pass-fusion scan scheduler — so concurrent requests against
// the same file fuse their pending passes onto shared physical scans instead
// of each scanning alone. This is the coalescing layer a multi-tenant
// service puts behind each hot graph; cmd/triangled builds its registry out
// of ScanGroups.
//
// Concurrency: Estimate, EstimateCliques, and Degeneracy may be called from
// any number of goroutines. Close must only be called once no request is in
// flight (the owner is responsible for draining; the daemon refcounts).
//
// Equivalence: a group Estimate with a given (seed, epsilon, multiplier,
// budget) returns the same Result.Estimate bits as a standalone
// EstimateFile with the same options — fusion cannot change results (the
// scheduler contract, DESIGN.md §4) and the shared κ̂ equals the one a
// standalone run would peel itself. What does differ is accounting:
// Result.Passes excludes the group-amortized prelude (edge count, peel) and
// Result.Scans stays zero because physical scans belong to the whole group
// (see Scans).
type ScanGroup struct {
	path     string
	backend  string
	src      stream.Stream
	m        int
	vertices int // 1 + max vertex ID, discovered by the opening scan
	workers  int
	retry    stream.RetryPolicy
	sch      *sched.Scheduler

	kmu       sync.Mutex
	kappa     *GroupKappa
	kappaWait chan struct{} // non-nil while one request resolves κ̂
}

// OpenScanGroup opens an edge file (text or .bex) as a scan group. The
// group's stream facts (m and the largest vertex ID) are discovered by one
// counting scan up front; an empty stream returns ErrNoEdges. ctx is the
// group's lifetime: cancelling it aborts every wave of every request —
// per-request scopes are the ctx arguments of Estimate and friends.
func OpenScanGroup(ctx context.Context, path string, gopts GroupOptions) (*ScanGroup, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	retry := retryPolicy(Options{RetryAttempts: gopts.RetryAttempts})
	fs, err := stream.OpenAutoOpts(path, stream.OpenOptions{DecodeCache: gopts.DecodeCache})
	if err != nil {
		return nil, err
	}
	m, maxID, _, err := stream.CountEdgesAndMaxIDCtx(ctx, fs, retry)
	if err != nil {
		fs.Close()
		return nil, err
	}
	if m == 0 {
		fs.Close()
		return nil, ErrNoEdges
	}
	g := &ScanGroup{
		path:     path,
		backend:  stream.BackendOf(fs),
		src:      fs,
		m:        m,
		vertices: maxID + 1,
		workers:  gopts.Workers,
		retry:    retry,
	}
	g.sch = sched.NewCtx(ctx, fs, m, gopts.Workers, retry)
	return g, nil
}

// Path returns the file the group serves.
func (g *ScanGroup) Path() string { return g.path }

// Backend returns the storage backend the group's stream is served from
// ("text", "bex1", "bex2", "bexd").
func (g *ScanGroup) Backend() string { return g.backend }

// M returns the number of edges in the stream.
func (g *ScanGroup) M() int { return g.m }

// Scans returns the physical scans the group has performed to date: the
// opening counting scan plus every scheduler wave. Requests share waves, so
// scans are a group-level quantity — with N concurrent same-file requests
// the figure grows far slower than the sum of the requests' logical passes.
func (g *ScanGroup) Scans() int { return 1 + g.sch.Scans() }

// Carried returns the cumulative number of fused requests the group's waves
// served; Carried/Scans is the average fused width.
func (g *ScanGroup) Carried() int { return g.sch.Carried() }

// Live returns how many scheduler clients are currently registered — a
// quiesced group reports zero; a persistent positive value after requests
// drained indicates a leaked client.
func (g *ScanGroup) Live() int { return g.sch.Live() }

// Retries returns the cumulative transient-I/O recoveries of the group's
// scans (healed scans are bit-identical, so this is resource accounting).
func (g *ScanGroup) Retries() int { return g.sch.Retries() }

// PeakSpaceWords returns the peak of concurrently retained words across
// everything that ever ran fused on this group.
func (g *ScanGroup) PeakSpaceWords() int64 { return g.sch.Meter().Peak() }

// CurrentSpaceWords returns the words retained by in-flight requests now.
func (g *ScanGroup) CurrentSpaceWords() int64 { return g.sch.Meter().Current() }

// Close releases the underlying stream. The caller must ensure no request
// is in flight.
func (g *ScanGroup) Close() error {
	if c, ok := g.src.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Degeneracy returns the group's shared κ̂ resolution, peeling it from the
// stream on first use (single-flight: concurrent callers wait for the one
// resolution rather than racing their own; a waiter whose ctx fires gives up
// waiting without disturbing the resolution). The peel runs as a scheduler
// client, so it fuses with whatever passes other requests have pending.
func (g *ScanGroup) Degeneracy(ctx context.Context) (GroupKappa, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		g.kmu.Lock()
		if g.kappa != nil {
			k := *g.kappa
			g.kmu.Unlock()
			return k, nil
		}
		if g.kappaWait == nil {
			done := make(chan struct{})
			g.kappaWait = done
			g.kmu.Unlock()
			k, err := g.resolveKappa(ctx)
			g.kmu.Lock()
			if err == nil {
				g.kappa = &k
			}
			g.kappaWait = nil
			g.kmu.Unlock()
			close(done)
			return k, err
		}
		wait := g.kappaWait
		g.kmu.Unlock()
		select {
		case <-wait:
			// Re-check: the resolver may have failed (its deadline, an I/O
			// error); then this caller becomes the next resolver.
		case <-ctx.Done():
			return GroupKappa{}, fmt.Errorf("triangle: waiting for shared degeneracy resolution: %w", context.Cause(ctx))
		}
	}
}

func (g *ScanGroup) resolveKappa(ctx context.Context) (GroupKappa, error) {
	c := g.sch.NewClientCtx(ctx)
	defer c.Done()
	meter := stream.NewSpaceMeter()
	meter.Tee(g.sch.Meter())
	dres, err := degen.EstimateOn(c, degen.Options{KnownVertices: g.vertices, Meter: meter})
	if err != nil {
		return GroupKappa{}, fmt.Errorf("triangle: %w", err)
	}
	k := dres.Kappa
	if k < 1 {
		k = 1
	}
	return GroupKappa{Kappa: k, LowerBound: dres.LowerBound, Passes: dres.Passes, SpaceWords: dres.SpaceWords}, nil
}

// Estimate runs one triangle-estimation request on the group. The request's
// passes register as scheduler clients scoped to ctx: a deadline or
// disconnect abandons only this request's passes (mid-wave, at a batch
// boundary) while fused peers continue bit-identically. Degradation follows
// EstimateFileCtx: a ctx that fires after at least one usable probe returns
// the best accepted estimate with Result.Partial set and a nil error.
//
// Options semantics match EstimateFile with these service-mode exceptions:
// ExactDegeneracy and WrapStream are rejected (the first materializes the
// graph, the second would perturb the shared stream every rider sees);
// Workers and RetryAttempts are group-wide and ignored per request. A zero
// Degeneracy uses the group's shared κ̂ — including the library's space-
// cutoff mirror: a MaxSpaceWords budget smaller than the peel's footprint
// aborts exactly as the standalone run would.
func (g *ScanGroup) Estimate(ctx context.Context, opts Options) (Result, error) {
	if opts.ExactDegeneracy {
		return Result{}, errors.New("triangle: ScanGroup does not serve ExactDegeneracy (it materializes the graph); supply Options.Degeneracy or use the streaming default")
	}
	if opts.WrapStream != nil {
		return Result{}, errors.New("triangle: ScanGroup does not accept WrapStream (the stream is shared; wrap a private EstimateFile run instead)")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	kappa := opts.Degeneracy
	approx := false
	if kappa <= 0 {
		peel, err := g.Degeneracy(ctx)
		if err != nil {
			return Result{}, err
		}
		kappa = peel.Kappa
		approx = true
		if opts.MaxSpaceWords > 0 && peel.SpaceWords > opts.MaxSpaceWords {
			// Mirror of the standalone path's Markov cutoff: the κ̂
			// resolution this request depends on would itself have blown the
			// request's budget, so the request aborts with the derived bound
			// reported — bit-identical outcome to EstimateFile.
			return Result{
				Edges:            g.m,
				SpaceWords:       peel.SpaceWords,
				DegeneracyBound:  kappa,
				DegeneracyApprox: true,
				Passes:           peel.Passes,
				Aborted:          true,
				Backend:          g.backend,
			}, nil
		}
	}
	cfg := coreConfig(opts, kappa)
	cfg.Workers = g.workers
	cfg.Retry = g.retry

	var res core.Result
	var err error
	if opts.TriangleGuess > 0 {
		cfg.TGuess = opts.TriangleGuess
		c := g.sch.NewClientCtx(ctx)
		est := core.NewEstimator(cfg)
		est.TeeSpace(g.sch.Meter())
		res, err = est.RunOn(c)
		c.Done()
	} else {
		res, err = core.AutoEstimateOnCtx(ctx, g.sch, cfg)
	}
	if err != nil {
		if errors.Is(err, core.ErrNoEdges) {
			return Result{}, ErrNoEdges
		}
		return Result{}, fmt.Errorf("triangle: %w", err)
	}
	return Result{
		Estimate:         res.Estimate,
		Passes:           res.Passes,
		Scans:            0, // physical scans are group-level; see ScanGroup.Scans
		SpaceWords:       res.SpaceWords,
		Edges:            g.m,
		DegeneracyBound:  kappa,
		DegeneracyApprox: approx,
		Aborted:          res.Aborted,
		Partial:          res.Partial,
		Retries:          res.Retries,
		Backend:          g.backend,
	}, nil
}

// EstimateCliques runs one k-clique estimation request on the group, fused
// with whatever else is in flight. Unlike the in-memory EstimateCliques
// (which materializes the graph and computes κ exactly), a zero Degeneracy
// here uses the group's streaming κ̂ — a certified upper bound, so the
// estimator's guarantee holds; the sample sizes are merely sized to the
// looser bound.
func (g *ScanGroup) EstimateCliques(ctx context.Context, opts CliqueOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.CliqueGuess < 1 {
		return Result{}, fmt.Errorf("triangle: CliqueGuess must be a positive lower bound on the %d-clique count", opts.K)
	}
	kappa := opts.Degeneracy
	approx := false
	if kappa <= 0 {
		peel, err := g.Degeneracy(ctx)
		if err != nil {
			return Result{}, err
		}
		kappa = peel.Kappa
		approx = true
	}
	eps := opts.Epsilon
	if eps <= 0 || eps >= 1 {
		eps = 0.1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	mult := opts.SampleMultiplier
	if mult <= 0 {
		mult = 1
	}
	cfg := clique.DefaultConfig(opts.K, eps, kappa, opts.CliqueGuess)
	cfg.CR, cfg.CL = 8*mult, 8*mult
	cfg.Seed = seed
	cfg.Workers = g.workers

	c := g.sch.NewClientCtx(ctx)
	res, err := clique.EstimateOn(c, cfg, g.sch.Meter())
	c.Done()
	if err != nil {
		return Result{}, fmt.Errorf("triangle: %w", err)
	}
	return Result{
		Estimate:         res.Estimate,
		Passes:           res.Passes,
		SpaceWords:       res.SpaceWords,
		Edges:            g.m,
		DegeneracyBound:  kappa,
		DegeneracyApprox: approx,
		Backend:          g.backend,
	}, nil
}
