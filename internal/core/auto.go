package core

import (
	"context"
	"errors"
	"fmt"

	"degentri/internal/sched"
	"degentri/internal/stream"
)

// ErrNoEdges is returned by AutoEstimate and Estimator.Run when the stream
// holds no edges: with m = 0 there is no T ≤ 2mκ search range and no
// estimate to report. The facade maps it onto its own ErrNoEdges so the
// in-memory and file entry points fail identically on empty inputs.
var ErrNoEdges = errors.New("core: stream contains no edges")

// AutoEstimate removes the "T is known" assumption behind Config.TGuess by
// the standard geometric search: start from the Chiba–Nishizeki upper bound
// T ≤ 2mκ (Corollary 3.2), run the estimator, and halve the guess until the
// estimate is consistent with it (estimate ≥ guess). Each halving doubles the
// sample sizes, so the total space is within a constant factor of the space
// the final accepted run uses, and the number of passes is 6·O(log(mκ)).
// κ is cfg.Kappa, supplied by the caller: the search neither peels nor
// otherwise derives a bound (the triangle facade resolves one per session).
//
// A probe at a guess above 1 stops after pass 4 when even assigning every
// closed wedge could not lift its estimate to its guess (Result.Rejected):
// the full run would have been rejected too, so the accepted estimate is
// unchanged, but the probe neither runs passes 5–6 nor allocates their
// state. A rejected probe has no estimate, so the deadline fallback below
// degrades only to probes that ran all their passes, and a search that
// would have hit MaxSpaceWords inside a doomed probe's passes 5–6 goes on
// to the next guess. The confirmation run is never rejected.
//
// The search runs on the pass-fusion scan scheduler: probes are executed in
// speculative batches of Config.SpecWidth (default 2), and because probe
// seeds are keyed by attempt index, pass k of every probe in a batch shares
// one physical scan — the accepted estimate is bit-identical to the
// sequential search, the probes just cost fewer scans. Acceptance examines
// probe results in sequential attempt order, so speculative probes past the
// first accepted (or aborted) attempt contribute neither to Result.Passes
// (the logical, paper metric) nor to the accepted values; their scans were
// shared anyway and are reported in Result.Scans.
//
// The returned Result is the accepted run's result with Passes replaced by
// the cumulative logical pass count of the whole search, Scans by the
// physical scans actually performed, and SpaceWords by the peak of
// concurrently retained words across everything that was fused (which is at
// least the accepted run's own peak).
func AutoEstimate(src stream.Stream, cfg Config) (Result, error) {
	return AutoEstimateCtx(context.Background(), src, cfg)
}

// AutoEstimateCtx is AutoEstimate under a cancellation context. A deadline or
// cancellation that fires mid-search degrades gracefully: if at least one
// probe run completed, the search returns its result flagged Partial with a
// nil error (the deadline analogue of the MaxSpaceWords abort path); if
// nothing completed, the context error is returned wrapped as
// ErrDeadline/ErrAborted with the scan position it interrupted. Transient
// I/O errors are healed under Config.Retry and counted in Result.Retries. A
// stream that does not know its length costs one counting pass first, which
// Passes and Scans include, whether it succeeds or fails.
func AutoEstimateCtx(ctx context.Context, src stream.Stream, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	sch, err := sched.Open(ctx, src, cfg.Workers, cfg.Retry)
	opening := sch.Scans()
	var res Result
	if err == nil {
		c := sch.NewClient()
		res, err = AutoEstimateFrom(c, cfg, nil)
		c.Done()
	}
	res.Passes += opening
	res.Scans, res.Retries = sch.Scans(), sch.Retries()
	return res, WrapAbort(err)
}

// AutoEstimateFrom is the geometric search invoked from an existing
// scheduler client — one trial of a fused trial group, or one request on a
// shared scan group. Each speculative batch of probes, and the confirmation
// run, is a Fork of c, so several searches fuse their probes' passes onto
// shared physical scans, and every probe inherits c.Context(): one request's
// deadline or disconnect abandons only its own passes (mid-wave, at a batch
// boundary) while fused peers complete bit-identically. c stays in the wave
// barrier between one batch and the next (Fork re-admits it inside the last
// probe's Done), so its peers cannot slip a wave past it, and fused searches
// make the same physical scans on every run. The degradation semantics are
// those of AutoEstimateCtx.
//
// deg, when non-nil, is a degree oracle every run of the search reads (see
// Estimator.UseDegrees): a full probe then makes 5 passes instead of 6.
// Every probe's words are charged under c's meter, and Result.SpaceWords is
// its peak: the words the search's probes retained concurrently.
//
// The caller still owns c: its Done, and physical-scan accounting
// (Result.Scans is left zero).
func AutoEstimateFrom(c *sched.Client, cfg Config, deg []int32) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	m := c.M()
	if m == 0 {
		return Result{EdgesInStream: 0}, ErrNoEdges
	}
	logical := 0 // cumulative passes of the sequential (paper) search
	finish := func(res Result) Result {
		if peak := c.Meter().Peak(); peak > res.SpaceWords {
			res.SpaceWords = peak
		}
		res.Passes = logical
		return res
	}

	// runProbes executes one estimator run per config on the children of a
	// Fork of c, concurrently and fused. A halving probe at a guess above 1
	// may be rejected after pass 4.
	runProbes := func(cfgs []Config, halving bool) ([]Result, []error) {
		results := make([]Result, len(cfgs))
		errs := make([]error, len(cfgs))
		c.Fork(len(cfgs), func(i int, kid *sched.Client) {
			est := NewEstimator(cfgs[i])
			est.UseDegrees(deg)
			est.rejectBelowGuess = halving && cfgs[i].TGuess > 1
			results[i], errs[i] = est.RunOn(kid)
		})
		return results, errs
	}

	width := cfg.SpecWidth
	if width == 0 {
		width = 2
	}

	// last is the most recent completed probe (drives acceptance and the
	// confirmation run); lastGood is the most recent one whose estimate is
	// actually usable (> 0) — the only kind worth degrading to when a
	// deadline interrupts the search. A probe can legitimately complete with
	// estimate 0 (none of its sampled wedges closed at a far-too-high guess),
	// and "partial result: 0 triangles" would be worse than an error. A
	// rejected probe has no estimate, so it never becomes lastGood.
	var last, lastGood Result
	haveGood := false
	accepted := -1
	for base := 0; accepted < 0; base += width {
		cfgs := make([]Config, 0, width)
		for i := base; i < base+width; i++ {
			runCfg := probeConfig(cfg, m, i)
			cfgs = append(cfgs, runCfg)
			if runCfg.TGuess == 1 {
				break // guess 1 is always terminal; deeper probes are waste
			}
		}
		results, errs := runProbes(cfgs, true)
		// Examine the batch in sequential attempt order: the first terminal
		// event (error, abort, or acceptance) decides, exactly as if the
		// probes had run one at a time; later probes in the batch were
		// speculation and are discarded from the logical accounting.
		for j := range cfgs {
			attempt := base + j
			guess := cfgs[j].TGuess
			res, err := results[j], errs[j]
			if err != nil {
				logical += res.Passes
				if ctxDone(err) && haveGood {
					// Deadline (or cancellation) mid-search: degrade to the
					// best completed probe instead of returning nothing —
					// the deadline analogue of the MaxSpaceWords abort. Its
					// certificate (samples, instances, d_R) is the probe's
					// own; only the search didn't converge.
					out := finish(lastGood)
					out.Partial = true
					return out, nil
				}
				return finish(res), WrapAbort(fmt.Errorf("core: auto-estimate at guess %d: %w", guess, err))
			}
			logical += res.Passes
			last = res
			if res.Estimate > 0 {
				lastGood = res
				haveGood = true
			}
			if res.Aborted {
				return finish(last), nil
			}
			if res.Estimate >= float64(guess) || guess == 1 {
				accepted = attempt
				break
			}
		}
	}

	// Confirmation run: the probing loop accepts a run conditioned on its
	// estimate exceeding the guess, which biases the accepted value upward
	// when the guess sits just above T. Re-running once with the guess set
	// from the accepted estimate (and a fresh seed) removes that selection
	// bias while staying within a constant factor of the accepted run's
	// space.
	if last.Estimate > 0 {
		runCfg := confirmConfig(cfg, accepted, last.Estimate)
		confirmGuess := runCfg.TGuess
		results, errs := runProbes([]Config{runCfg}, false)
		res, err := results[0], errs[0]
		logical += res.Passes
		if err != nil {
			if ctxDone(err) {
				// The accepted probe stands on its own; losing only the
				// bias-removing confirmation is a Partial outcome, not a
				// failure. (last.Estimate > 0 here, so it is lastGood too.)
				out := finish(last)
				out.Partial = true
				return out, nil
			}
			return finish(res), WrapAbort(fmt.Errorf("core: auto-estimate confirmation at guess %d: %w", confirmGuess, err))
		}
		if !res.Aborted {
			last = res
		}
	}
	return finish(last), nil
}

// probeConfig is attempt i of the sequential halving over a stream of m
// edges: the guess is 2mκ halved i times, floored at 1, and the seed is
// keyed by i, so a probe is the same run at any speculation width.
func probeConfig(cfg Config, m, attempt int) Config {
	g := max(int64(2)*int64(m)*int64(cfg.Kappa), 1)
	for i := 0; i < attempt && g > 1; i++ {
		g /= 2
	}
	cfg.TGuess = g
	cfg.Seed += uint64(attempt) * 0x9e37
	return cfg
}

// confirmConfig is the confirmation run after attempt accepted returned
// estimate: a guess of half the estimate (at least 1) and a fresh seed.
func confirmConfig(cfg Config, accepted int, estimate float64) Config {
	cfg.TGuess = max(int64(estimate/2), 1)
	cfg.Seed += uint64(accepted+1)*0x9e37 + 0x51ed
	return cfg
}
