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
	// performs (0 = GOMAXPROCS; negative is an error). Estimates are
	// identical at any setting, so this is purely a resource knob; a valid
	// per-request Options.Workers is ignored inside a group — scan
	// parallelism belongs to the shared scans, not to the requests riding
	// them.
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
// per-request peels would all reproduce the same bound anyway). The same
// resolution keeps the peel's first round, every vertex's degree, as the
// degree oracle of the group's streamed-κ̂ estimates.
type GroupKappa struct {
	// Kappa is the certified upper bound κ ≤ Kappa ≤ 2(1+ε)κ, floored at 1.
	Kappa int
	// LowerBound is the certified density lower bound ≤ κ.
	LowerBound int
	// Passes is what the resolution cost in logical passes: the peel's
	// rounds, plus its vertex-ID pass unless the group's opening scan
	// already found the vertex count (text files).
	Passes int
	// SpaceWords is the peel's accounted peak space over n vertices: n +
	// ⌈n/64⌉ words for round 1's degree array and the alive bitset, plus,
	// when later rounds run, one word per survivor of round 1 (fewer than
	// 2n/3) and ⌈n/64⌉ for the bitset's rank base. The n words of round 1's
	// array stay charged to the group until Close (see CurrentSpaceWords).
	SpaceWords int64
}

// ScanGroup is an estimation session over one edge stream: it resolves the
// stream facts every estimate needs (edge count, the κ̂ peel) exactly once,
// and runs every estimator run as a client of one pass-fusion scan scheduler
// — so runs over the same stream fuse their pending passes onto shared
// physical scans instead of each scanning alone. Every facade estimate runs
// on one: EstimateFile, EstimateFileTrials and Estimate open a private group
// over their own stream, and a long-lived service keeps one shared group per
// hot graph (OpenScanGroup); cmd/triangled builds its registry out of them.
//
// Concurrency: Estimate, EstimateCliques, and Degeneracy may be called from
// any number of goroutines. Close must only be called once no request is in
// flight (the owner is responsible for draining; the daemon refcounts).
//
// Equivalence: a group Estimate with a given (seed, epsilon, multiplier,
// budget) returns the same Result.Estimate bits as a standalone
// EstimateFile with the same options — both run the same session code, and
// fusion cannot change results (the scheduler contract, DESIGN.md §4). What
// does differ is accounting: Result.Passes excludes the group-amortized
// prelude (edge count, peel), Result.SpaceWords excludes the group-retained
// degree array (see CurrentSpaceWords), and Result.Scans stays zero because
// physical scans belong to the whole group (see Scans).
type ScanGroup struct {
	path    string
	backend string
	src     stream.Stream
	sch     *sched.Scheduler

	kmu       sync.Mutex
	kappa     *GroupKappa
	degrees   []int32       // the peel's round 1: every vertex's degree, read-only once published
	kappaWait chan struct{} // non-nil while one request resolves κ̂
}

// OpenScanGroup opens an edge file (text or .bex v2; see stream.OpenAuto) as
// a scan group that owns the file until Close. A text file is counted by one
// scan up front; an empty stream returns ErrNoEdges. ctx is the group's
// lifetime: cancelling it aborts every wave of every request — per-request
// scopes are the ctx arguments of Estimate and friends. A negative
// GroupOptions.Workers is an error.
func OpenScanGroup(ctx context.Context, path string, gopts GroupOptions) (*ScanGroup, error) {
	if err := checkNonNegative("Workers", int64(gopts.Workers)); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	fs, err := stream.OpenAutoOpts(path, stream.OpenOptions{DecodeCache: gopts.DecodeCache})
	if err != nil {
		return nil, err
	}
	g, err := newScanGroup(ctx, fs, stream.BackendOf(fs), gopts.Workers, retryPolicy(Options{RetryAttempts: gopts.RetryAttempts}))
	if err != nil {
		fs.Close()
		return nil, err
	}
	g.path = path
	return g, nil
}

// newScanGroup opens a group over src, which stays the caller's to close.
// Only a stream that does not know its length (text) is scanned at open (see
// sched.Open): one scan counts its edges and records its vertex count for
// the peel. A .bex or in-memory stream is not scanned; its peel makes its
// own vertex-ID pass.
func newScanGroup(ctx context.Context, src stream.Stream, backend string, workers int, retry stream.RetryPolicy) (*ScanGroup, error) {
	sch, err := sched.Open(ctx, src, workers, retry)
	if err != nil {
		return nil, err
	}
	if sch.M() == 0 {
		return nil, ErrNoEdges
	}
	return &ScanGroup{backend: backend, src: src, sch: sch}, nil
}

// Path returns the file the group serves.
func (g *ScanGroup) Path() string { return g.path }

// Backend returns the storage backend the group's stream is served from
// ("text" or "bex2").
func (g *ScanGroup) Backend() string { return g.backend }

// M returns the number of edges in the stream.
func (g *ScanGroup) M() int { return g.sch.M() }

// Scans returns the physical scans the group has performed to date: the
// opening counting scan (text only) plus every scheduler wave. Requests
// share waves, so scans are a group-level quantity — with N concurrent
// same-file requests the figure grows far slower than the sum of the
// requests' logical passes.
func (g *ScanGroup) Scans() int { return g.sch.Scans() }

// Carried returns the cumulative number of fused requests the group's waves
// served; Carried/Scans is the average fused width.
func (g *ScanGroup) Carried() int { return g.sch.Carried() }

// Live returns how many scheduler clients are currently registered — a
// quiesced group reports zero; a persistent positive value after requests
// drained indicates a leaked client.
func (g *ScanGroup) Live() int { return g.sch.Live() }

// Retries returns the cumulative transient-I/O recoveries of the group's
// scans, the opening scan included (healed scans are bit-identical, so this
// is resource accounting).
func (g *ScanGroup) Retries() int { return g.sch.Retries() }

// PeakSpaceWords returns the peak of concurrently retained words across
// everything that ever ran fused on this group: the κ̂ peel's footprint, and
// every request's words on top of the degree array the group keeps.
func (g *ScanGroup) PeakSpaceWords() int64 { return g.sch.Meter().Peak() }

// CurrentSpaceWords returns the words retained now: those of in-flight
// requests, plus, once the group has peeled κ̂, the n words of the degree
// array it keeps until Close.
func (g *ScanGroup) CurrentSpaceWords() int64 { return g.sch.Meter().Current() }

// Close releases the underlying stream and the group's degree array. The
// caller must ensure no request is in flight.
func (g *ScanGroup) Close() error {
	g.kmu.Lock()
	g.sch.Meter().Release(int64(len(g.degrees)))
	g.degrees = nil
	g.kmu.Unlock()
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
	k, _, err := g.resolve(ctx)
	return k, err
}

// resolve is Degeneracy that also returns the degree array the resolution
// kept. Fused trials and requests all read that one array.
func (g *ScanGroup) resolve(ctx context.Context) (GroupKappa, []int32, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		g.kmu.Lock()
		if g.kappa != nil {
			k, deg := *g.kappa, g.degrees
			g.kmu.Unlock()
			return k, deg, nil
		}
		if g.kappaWait == nil {
			done := make(chan struct{})
			g.kappaWait = done
			g.kmu.Unlock()
			k, deg, err := g.resolveKappa(ctx)
			g.kmu.Lock()
			if err == nil {
				g.kappa, g.degrees = &k, deg
				// The group keeps the array for its lifetime, so its words
				// stay charged until Close.
				g.sch.Meter().Charge(int64(len(deg)))
			}
			g.kappaWait = nil
			g.kmu.Unlock()
			close(done)
			return k, deg, err
		}
		wait := g.kappaWait
		g.kmu.Unlock()
		select {
		case <-wait:
			// Re-check: the resolver may have failed (its deadline, an I/O
			// error); then this caller becomes the next resolver.
		case <-ctx.Done():
			return GroupKappa{}, nil, fmt.Errorf("triangle: waiting for shared degeneracy resolution: %w", context.Cause(ctx))
		}
	}
}

func (g *ScanGroup) resolveKappa(ctx context.Context) (GroupKappa, []int32, error) {
	c := g.sch.NewClientCtx(ctx)
	defer c.Done()
	dres, deg, err := degen.EstimateWithDegrees(c, degen.Options{KnownVertices: g.sch.Vertices()})
	if err != nil {
		return GroupKappa{}, nil, fmt.Errorf("triangle: %w", err)
	}
	k := dres.Kappa
	if k < 1 {
		k = 1
	}
	return GroupKappa{Kappa: k, LowerBound: dres.LowerBound, Passes: dres.Passes, SpaceWords: dres.SpaceWords}, deg, nil
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
// Degeneracy uses the group's shared κ̂ and its degree oracle — including
// the library's space-cutoff mirror: a MaxSpaceWords budget smaller than the
// peel's footprint aborts exactly as the standalone run would.
func (g *ScanGroup) Estimate(ctx context.Context, opts Options) (Result, error) {
	if opts.ExactDegeneracy {
		return Result{}, errors.New("triangle: ScanGroup does not serve ExactDegeneracy (it materializes the graph); supply Options.Degeneracy or use the streaming default")
	}
	if opts.WrapStream != nil {
		return Result{}, errors.New("triangle: ScanGroup does not accept WrapStream (the stream is shared; wrap a private EstimateFile run instead)")
	}
	if err := checkOptions(opts); err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := g.run(ctx, opts, 1)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Edges:            g.M(),
		DegeneracyBound:  r.kappa.Kappa,
		DegeneracyApprox: r.approx,
		Backend:          g.backend,
	}
	if r.trials == nil {
		out.Passes, out.SpaceWords, out.Aborted = r.kappa.Passes, r.kappa.SpaceWords, true
		return out, nil
	}
	res := r.trials[0]
	out.Estimate, out.Passes, out.SpaceWords = res.Estimate, res.Passes, res.SpaceWords
	out.Aborted, out.Partial, out.Retries = res.Aborted, res.Partial, res.Retries
	return out, nil
}

// runResult is one run of the session: the κ its trials sized their samples
// with and the trials' results.
type runResult struct {
	// kappa is the bound; its Passes and SpaceWords are the peel's, zero
	// when the caller supplied κ.
	kappa  GroupKappa
	approx bool          // kappa is the group's streaming κ̂
	trials []core.Result // in trial order; nil when the peel alone exceeded the budget
}

// run is the one estimate path of the library. κ is opts.Degeneracy, else
// the group's shared κ̂ peel, whose words count against opts.MaxSpaceWords
// like any trial's state, and whose first round gives every run its degrees
// (a run with a supplied κ has no peel and counts them). Then trials
// estimator runs (the geometric search, or one run at opts.TriangleGuess)
// execute fused on the group's scheduler, as the children of one root
// client's Fork; trial i uses seed Seed + i·7919. The root's Done hands the
// trials' words back to the group once every trial has returned. Every error
// is branded with core's abort sentinels.
func (g *ScanGroup) run(ctx context.Context, opts Options, trials int) (runResult, error) {
	out := runResult{kappa: GroupKappa{Kappa: opts.Degeneracy}}
	var deg []int32
	// κ is resolved before the root client registers: a registered client
	// waiting on the peel would hold back the peel's waves.
	if opts.Degeneracy <= 0 {
		k, d, err := g.resolve(ctx)
		if err != nil {
			return out, core.WrapAbort(err)
		}
		out.kappa, out.approx, deg = k, true, d
		if opts.MaxSpaceWords > 0 && k.SpaceWords > opts.MaxSpaceWords {
			return out, nil
		}
	}
	cfg := coreConfig(opts, out.kappa.Kappa)
	if opts.TriangleGuess > 0 {
		cfg.TGuess = opts.TriangleGuess
	}

	root := g.sch.NewClientCtx(ctx)
	out.trials = make([]core.Result, trials)
	errs := make([]error, trials)
	root.Fork(trials, func(i int, c *sched.Client) {
		cfg := cfg
		cfg.Seed += uint64(i) * 7919
		if opts.TriangleGuess > 0 {
			est := core.NewEstimator(cfg)
			est.UseDegrees(deg)
			out.trials[i], errs[i] = est.RunOn(c)
		} else {
			out.trials[i], errs[i] = core.AutoEstimateFrom(c, cfg, deg)
		}
	})
	root.Done()
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, core.ErrNoEdges):
			return out, ErrNoEdges
		case trials > 1:
			return out, fmt.Errorf("triangle: trial %d: %w", i, core.WrapAbort(err))
		default:
			return out, fmt.Errorf("triangle: %w", core.WrapAbort(err))
		}
	}
	return out, nil
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
	if err := checkCliqueOptions(opts); err != nil {
		return Result{}, err
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
	cfg := cliqueConfig(opts, kappa)

	// The run's words go back to the group with its client's Done.
	c := g.sch.NewClientCtx(ctx)
	res, err := clique.EstimateOn(c, cfg)
	c.Done()
	if err != nil {
		return Result{}, fmt.Errorf("triangle: %w", err)
	}
	return Result{
		Estimate:         res.Estimate,
		Passes:           res.Passes,
		SpaceWords:       res.SpaceWords,
		Edges:            g.M(),
		DegeneracyBound:  kappa,
		DegeneracyApprox: approx,
		Backend:          g.backend,
	}, nil
}
