package exp

import (
	"fmt"
	"runtime"
	"sync"

	"degentri/internal/core"
	"degentri/internal/sampling"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// TrialStats aggregates the outcomes of repeated runs of one estimator on one
// workload.
type TrialStats struct {
	Trials             int
	Truth              float64
	MeanEstimate       float64
	MedianRelErr       float64
	MeanRelErr         float64
	P90RelErr          float64
	MeanSpace          float64
	MaxSpace           int64
	Passes             int
	MeanEstimateRelErr float64
}

// Runner produces one estimator result per trial. Trials are independent:
// RunTrials may invoke the runner from multiple goroutines concurrently (one
// call per trial index), so a Runner must not share mutable state between
// calls — build a fresh stream, RNG, and estimator per trial, as every
// runner in this package does.
type Runner func(trial int) (core.Result, error)

// RunTrials executes the runner the given number of times and aggregates
// relative errors and space usage against the known ground truth. Trials run
// on a bounded worker pool (one worker per CPU, capped at the trial count);
// the aggregation is performed sequentially in trial order afterwards, so the
// returned statistics are bit-identical to a sequential run regardless of
// worker count.
//
// The comparison experiments deliberately vary the *stream order* per trial
// (Workload.Stream(trial)), so their trials read different physical streams
// and cannot share scans. Trials that replay one shared stream with varying
// estimator seeds — repeated runs on a file, the trianglecount -trials flag —
// should use RunTrialsFused instead, which fuses all trials' passes onto the
// scan scheduler so R trials cost roughly the physical scans of one.
func RunTrials(run Runner, trials int, truth float64) (TrialStats, error) {
	return RunTrialsWorkers(run, trials, truth, 0)
}

// RunTrialsWorkers is RunTrials with an explicit worker count; workers <= 0
// selects the default (min(GOMAXPROCS, trials)), and workers == 1 degrades
// to a plain sequential loop.
func RunTrialsWorkers(run Runner, trials int, truth float64, workers int) (TrialStats, error) {
	if trials < 1 {
		return TrialStats{}, fmt.Errorf("exp: trials must be positive")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}

	results := make([]core.Result, trials)
	errs := make([]error, trials)
	if workers == 1 {
		for i := 0; i < trials; i++ {
			results[i], errs[i] = run(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					results[i], errs[i] = run(i)
				}
			}()
		}
		for i := 0; i < trials; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	return aggregateTrials(results, errs, truth)
}

// aggregateTrials folds per-trial results into TrialStats sequentially in
// trial order: floating-point sums and maxima accumulate exactly as in a
// sequential run, regardless of how the trials were executed.
func aggregateTrials(results []core.Result, errs []error, truth float64) (TrialStats, error) {
	trials := len(results)
	stats := TrialStats{Trials: trials, Truth: truth}
	var relErrs []float64
	var estimates []float64
	for i := 0; i < trials; i++ {
		if errs[i] != nil {
			return stats, fmt.Errorf("exp: trial %d: %w", i, errs[i])
		}
		res := results[i]
		relErrs = append(relErrs, sampling.RelativeError(res.Estimate, truth))
		estimates = append(estimates, res.Estimate)
		stats.MeanSpace += float64(res.SpaceWords)
		if res.SpaceWords > stats.MaxSpace {
			stats.MaxSpace = res.SpaceWords
		}
		stats.Passes = res.Passes
	}
	stats.MeanEstimate = sampling.Mean(estimates)
	stats.MedianRelErr = sampling.Median(relErrs)
	stats.MeanRelErr = sampling.Mean(relErrs)
	stats.P90RelErr = sampling.Quantile(relErrs, 0.9)
	stats.MeanSpace /= float64(trials)
	stats.MeanEstimateRelErr = sampling.RelativeError(stats.MeanEstimate, truth)
	return stats, nil
}

// FusedRunner runs one trial against a shared stream, executing every pass
// through the given scheduler client, one child of a Fork: every trial's
// client is registered before any trial starts, which is what makes all
// trials fuse from their first wave. A runner that delegates to sub-runs
// forks its client in turn, as core.AutoEstimateFrom does, and a run on the
// client charges its words under the client's meter by itself.
type FusedRunner func(c *sched.Client, trial int) (core.Result, error)

// FusedTrials is the outcome of a fused trial run: the per-trial results (in
// trial order, bit-identical to running each trial alone) plus the physical
// accounting of the fused execution.
type FusedTrials struct {
	// Results holds one core.Result per trial, in trial order.
	Results []core.Result
	// Scans is how many physical scans of the shared stream the whole fused
	// run performed — with R similar trials in lockstep, roughly the passes
	// of one trial rather than R× that.
	Scans int
	// PeakSpaceWords is the peak number of words retained *concurrently*
	// across all fused trials (the scheduler's group meter), the honest
	// space figure for the fused execution.
	PeakSpaceWords int64
}

// Stats aggregates the fused results against a known ground truth, exactly
// like RunTrials does for unfused trials.
func (ft FusedTrials) Stats(truth float64) (TrialStats, error) {
	return aggregateTrials(ft.Results, make([]error, len(ft.Results)), truth)
}

// RunTrialsFused executes trials whose passes all fuse onto one scan
// scheduler over a single shared stream of exactly m edges: where RunTrials
// gives each trial its own scans (a worker pool of independent streams),
// here the trials are scheduler clients and every wave of the scheduler
// carries the pending pass of every live trial. R lockstep trials therefore
// cost about the physical scans of the slowest single trial. The per-trial
// results are bit-identical to unfused runs of the same (stream, config):
// all in-pass randomness is keyed, never positional.
//
// workers bounds the shard workers of each fused scan (<= 0: GOMAXPROCS).
// The first trial error (in trial order) is returned, matching RunTrials.
func RunTrialsFused(src stream.Stream, m, trials, workers int, run FusedRunner) (FusedTrials, error) {
	if trials < 1 {
		return FusedTrials{}, fmt.Errorf("exp: trials must be positive")
	}
	sch := sched.New(src, m, workers)
	root := sch.NewClient()
	results := make([]core.Result, trials)
	errs := make([]error, trials)
	root.Fork(trials, func(i int, c *sched.Client) {
		results[i], errs[i] = run(c, i)
	})
	root.Done()
	ft := FusedTrials{Results: results, Scans: sch.Scans(), PeakSpaceWords: sch.Meter().Peak()}
	for i, err := range errs {
		if err != nil {
			return ft, fmt.Errorf("exp: trial %d: %w", i, err)
		}
	}
	return ft, nil
}

// CoreRunner builds a Runner for the paper's six-pass estimator on a
// workload, using the exact κ and T of the workload for parameter setting
// (the controlled setting used by most experiments) and varying seeds per
// trial.
//
// RunTrials already fans the trials themselves out over the cores, so unless
// the caller asked for intra-run parallelism explicitly the estimator runs
// its passes with one shard worker — otherwise every one of GOMAXPROCS
// concurrent trials would spawn GOMAXPROCS more shard workers and the
// machine would schedule cores² competing goroutines. (The estimate is
// identical either way; only scheduling differs.)
func CoreRunner(w Workload, cfg core.Config) Runner {
	return func(trial int) (core.Result, error) {
		runCfg := cfg
		if runCfg.Workers == 0 {
			runCfg.Workers = 1
		}
		runCfg.Seed = cfg.Seed + uint64(trial)*7919
		return core.EstimateTriangles(w.Stream(trial), runCfg)
	}
}

// DefaultCoreConfig returns the estimator configuration used by the
// comparison experiments for a workload: exact κ and T, modest constants.
func DefaultCoreConfig(w Workload, epsilon float64) core.Config {
	t := w.T
	if t < 1 {
		t = 1
	}
	kappa := w.Kappa
	if kappa < 1 {
		kappa = 1
	}
	cfg := core.DefaultConfig(epsilon, kappa, t)
	cfg.CR, cfg.CL, cfg.CS = 16, 16, 8
	cfg.Seed = 1
	return cfg
}
