package triangle

import (
	"context"
	"fmt"
	"math"

	"degentri/internal/core"
	"degentri/internal/stream"
)

// TrialsResult reports repeated estimates of one input under keyed seeds,
// together with the resource accounting of the fused execution.
type TrialsResult struct {
	// Trials is the number of estimator runs performed.
	Trials int
	// Mean is the mean of the per-trial estimates.
	Mean float64
	// StdErr is the standard error of the mean (sample standard deviation /
	// √trials; zero for a single trial).
	StdErr float64
	// Estimates holds the per-trial estimates in trial order. Trial i runs
	// with seed Options.Seed + i·7919, so trial 0 reproduces exactly the
	// estimate a plain EstimateFile call with the same options returns.
	Estimates []float64
	// Passes is the total number of logical stream passes: the shared
	// prelude (the edge-counting scan of a text file, the degeneracy peel)
	// plus every trial's own passes.
	Passes int
	// Scans is the number of physical scans of the file that served those
	// passes. All trials run fused on the scan scheduler, so Scans is far
	// below Passes — that is the point of the fused runner.
	Scans int
	// SpaceWords is the peak number of words retained concurrently across
	// all fused trials.
	SpaceWords int64
	// Edges is the number of edges in the stream.
	Edges int
	// DegeneracyBound is the κ the trials sized their samples with (resolved
	// once, shared by every trial).
	DegeneracyBound int
	// DegeneracyApprox reports that the bound came from the streaming
	// peeling approximation.
	DegeneracyApprox bool
	// Aborted reports that at least one trial hit the space cutoff (its
	// estimate is meaningless; the mean then is too).
	Aborted bool
	// Partial reports that at least one trial was interrupted by a deadline
	// or cancellation and degraded to its best accepted estimate (see
	// Result.Partial); the mean then mixes confirmed and partial estimates.
	Partial bool
	// Retries is the number of transient-fault retries across the prelude and
	// every fused scan (resource accounting only; retries never change the
	// estimates).
	Retries int
	// Backend is the storage backend the stream was served from (see
	// Result.Backend).
	Backend string
}

// EstimateFileTrials runs the streaming estimator several times over one
// edge file with keyed per-trial seeds and reports the mean estimate with
// its standard error. The trials share everything shareable: they run on one
// private ScanGroup, which finds the stream length and the degeneracy bound
// once, and run fused on its pass-fusion scan scheduler — every physical
// scan of the file serves the pending pass of every live trial, so R trials
// cost roughly the scans of one trial rather than R×.
//
// Trial i uses seed Options.Seed + i·7919; trial 0 therefore reproduces the
// exact estimate of a plain EstimateFile call with the same options.
func EstimateFileTrials(path string, opts Options, trials int) (TrialsResult, error) {
	return EstimateFileTrialsCtx(context.Background(), path, opts, trials)
}

// EstimateFileTrialsCtx is EstimateFileTrials honoring a context:
// cancellation fails every live trial's next wave (the whole fused run winds
// down promptly), and trials that had already accepted a probe degrade to
// partial estimates (TrialsResult.Partial). Transient I/O faults are retried
// per Options.RetryAttempts with the count in TrialsResult.Retries.
func EstimateFileTrialsCtx(ctx context.Context, path string, opts Options, trials int) (TrialsResult, error) {
	if trials < 1 {
		return TrialsResult{}, fmt.Errorf("triangle: trials must be positive, got %d", trials)
	}
	if err := checkOptions(opts); err != nil {
		return TrialsResult{}, err
	}
	fs, err := stream.OpenAutoOpts(path, stream.OpenOptions{DecodeCache: opts.DecodeCache})
	if err != nil {
		return TrialsResult{}, err
	}
	defer fs.Close()
	return estimateTrials(ctx, fs, stream.BackendOf(fs), opts, trials)
}

// wrapped is an Options.WrapStream wrapper together with the stream it
// wraps, whose vertex count it reports, read when asked (a text knows its
// count after the opening scan, which runs through the wrapper). The count
// is a fact of the opened stream, so a wrapper that forwards only the Stream
// methods and range access must not cost the estimate a pass.
type wrapped struct {
	stream.Stream
	opened stream.Stream
}

func (w wrapped) Vertices() (int, bool) { return stream.VerticesOf(w.opened) }

func (w wrapped) RangeStream(lo, hi int) (stream.Stream, bool) {
	if rs, ok := w.Stream.(stream.RangeStreamer); ok {
		return rs.RangeStream(lo, hi)
	}
	return nil, false
}

// estimateTrials runs trials estimates on a private ScanGroup over src; every
// facade estimate lands here. The accounting is the whole session's: Passes
// counts the opening scan, the peel and every trial's passes, and Scans,
// Retries and SpaceWords are the group's.
func estimateTrials(ctx context.Context, src stream.Stream, backend string, opts Options, trials int) (TrialsResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := TrialsResult{Trials: trials, Backend: backend}
	if opts.WrapStream != nil {
		src = wrapped{opts.WrapStream(src), src}
	}
	if opts.Degeneracy <= 0 && opts.ExactDegeneracy {
		// Materializing is a text's first pass, so the group below finds the
		// length known and does not scan again.
		full, err := stream.Materialize(src)
		if err != nil {
			return out, err
		}
		opts.Degeneracy = max(full.Degeneracy(), 1)
	}
	g, err := newScanGroup(ctx, src, backend, opts.Workers, retryPolicy(opts))
	if err != nil {
		return out, core.WrapAbort(err)
	}
	out.Edges = g.M()
	opening := g.Scans()
	r, err := g.run(ctx, opts, trials)
	out.Retries = g.Retries()
	if err != nil {
		return out, err
	}
	out.DegeneracyBound, out.DegeneracyApprox = r.kappa.Kappa, r.approx
	out.Passes = opening + r.kappa.Passes
	out.Scans, out.SpaceWords = g.Scans(), g.PeakSpaceWords()
	if r.trials == nil {
		out.Aborted = true
		return out, nil
	}

	out.Estimates = make([]float64, trials)
	var sum float64
	for i, res := range r.trials {
		out.Estimates[i] = res.Estimate
		out.Passes += res.Passes
		out.Aborted = out.Aborted || res.Aborted
		out.Partial = out.Partial || res.Partial
		sum += res.Estimate
	}
	out.Mean = sum / float64(trials)
	if trials > 1 {
		var ss float64
		for _, e := range out.Estimates {
			d := e - out.Mean
			ss += d * d
		}
		out.StdErr = math.Sqrt(ss/float64(trials-1)) / math.Sqrt(float64(trials))
	}
	return out, nil
}
