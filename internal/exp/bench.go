package exp

import (
	"fmt"
	"os"
	"time"

	"degentri/internal/benchfmt"
	"degentri/internal/core"
	"degentri/internal/degen"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// BenchEpsilons are the accuracy points of the corpus sweep's error-vs-ε
// curve (the E2-style accuracy/space tradeoff, one column per ε).
var BenchEpsilons = []float64{0.2, 0.1, 0.05}

// benchGateEps is the ε whose run carries the gate metrics (estimate, passes,
// scans, space, worker invariance); the middle of the sweep.
const benchGateEps = 0.1

// BenchWorkers are the shard-worker counts of the invariance check: the
// gate-ε estimate must be bit-identical at every count.
var BenchWorkers = []int{1, 2, 4, 8}

// BenchOptions configures BenchSweep.
type BenchOptions struct {
	// CorpusDir is the graphfetch cache directory.
	CorpusDir string
	// Entry and PR identify the trajectory entry being produced
	// (BENCH_<Entry>.json, recorded by PR <PR>).
	Entry int
	PR    int
	// Date is the entry date, YYYY-MM-DD.
	Date string
	// Trials is the number of repeated estimator trials per (graph, ε)
	// (<= 0: 5). Trials replay the canonical file stream with per-trial
	// seeds, so they fuse onto shared scans.
	Trials int
	// Unfused disables scan fusion: every trial scans the file itself, so
	// physical scans multiply by roughly the trial count. This is the
	// deliberate-regression injection the CI gate proves it can catch —
	// estimates stay bit-identical, only the scan economy regresses.
	Unfused bool
	// Log receives one-line progress messages (nil = discard).
	Log func(format string, args ...any)
}

func (o *BenchOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// BenchSweep runs the benchmark-trajectory sweep over the cached corpus and
// returns the schema-v2 trajectory entry plus a human-readable summary table.
//
// Per corpus graph it records: structural facts (n, m, exact T, exact κ) and
// the streaming peel's κ̂; the error-vs-ε curve (median relative error over
// the trials at each BenchEpsilons point); and at the gate ε the estimate
// itself, logical passes, physical scans, and mean space words. Everything
// recorded as a deterministic metric runs with one shard worker and fixed
// seeds, so a candidate run on any machine reproduces the committed baseline
// bit for bit; wall-clock and edges/s are recorded as timing metrics
// (warn-only). The gate-ε estimate is additionally recomputed at every
// BenchWorkers count and any divergence fails the sweep outright.
func BenchSweep(opts BenchOptions) (*benchfmt.File, *Table, error) {
	specs, err := CorpusSpecs(opts.CorpusDir)
	if err != nil {
		return nil, nil, err
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = 5
	}

	mode := "fused"
	if opts.Unfused {
		mode = "unfused"
	}
	file := &benchfmt.File{
		Entry:       opts.Entry,
		PR:          opts.PR,
		Date:        opts.Date,
		Environment: benchfmt.HostEnvironment(),
		Commands: []string{
			"graphfetch -offline -cache " + opts.CorpusDir,
			fmt.Sprintf("experiments -corpus %s -bench-out BENCH_%d.json", opts.CorpusDir, opts.Entry),
		},
	}
	table := NewTable("bench",
		fmt.Sprintf("Corpus sweep (%d trials per ε, %s scans, workers=1)", trials, mode),
		"graph", "source", "n", "m", "T", "κ", "κ̂",
		"err ε=.20", "err ε=.10", "err ε=.05", "passes", "scans", "space (w)", "edges/s", "bytes")

	for _, spec := range specs {
		sweepStart := time.Now()
		w, err := spec.Load(ScaleDefault)
		if err != nil {
			return nil, nil, err
		}
		opts.logf("%-22s n=%d m=%d T=%d κ=%d", w.Name, w.N, w.M, w.T, w.Kappa)

		bw := benchfmt.Workload{
			Graph: w.Name, Source: w.Source, Category: w.Category,
			N: w.N, M: w.M, ExactT: w.T, Kappa: w.Kappa,
			Metrics: map[string]benchfmt.Metric{},
		}

		// Streaming κ̂: the peel's certified bound, deterministic (no seeds).
		kres, err := benchKappa(w)
		if err != nil {
			return nil, nil, err
		}
		bw.KappaApprox = kres.Kappa
		bw.Metrics["kappa_hat.passes"] = benchfmt.Metric{
			Value: float64(kres.Passes), Unit: "passes",
			Better: benchfmt.BetterLower, Class: benchfmt.ClassDeterministic,
		}

		// Error-vs-ε curve; the gate ε also records the gate metrics.
		var errCells []string
		for _, eps := range BenchEpsilons {
			stats, scans, err := benchTrials(w, eps, trials, opts.Unfused)
			if err != nil {
				return nil, nil, err
			}
			key := fmt.Sprintf("err.median.eps%.2f", eps)
			bw.Metrics[key] = benchfmt.Metric{
				Value: stats.MedianRelErr, Unit: "rel",
				Better: benchfmt.BetterLower, Class: benchfmt.ClassDeterministic,
				RelTol: 0.25, AbsTol: 0.02,
			}
			errCells = append(errCells, FormatPercent(stats.MedianRelErr))
			if eps == benchGateEps {
				// The estimate is the determinism canary: same stream, same
				// seeds — any drift is a semantic change and must re-baseline
				// deliberately.
				bw.Metrics["estimate.trial0.eps0.10"] = benchfmt.Metric{
					Value: stats.FirstEstimate, Unit: "triangles",
					Better: benchfmt.BetterExact, Class: benchfmt.ClassDeterministic,
				}
				bw.Metrics["passes.eps0.10"] = benchfmt.Metric{
					Value: float64(stats.Passes), Unit: "passes",
					Better: benchfmt.BetterLower, Class: benchfmt.ClassDeterministic,
				}
				bw.Metrics["scans.eps0.10"] = benchfmt.Metric{
					Value: float64(scans), Unit: "scans",
					Better: benchfmt.BetterLower, Class: benchfmt.ClassDeterministic,
				}
				bw.Metrics["space.mean_words.eps0.10"] = benchfmt.Metric{
					Value: stats.MeanSpace, Unit: "words",
					Better: benchfmt.BetterLower, Class: benchfmt.ClassDeterministic,
					RelTol: 0.10,
				}
				table.AddRow(w.Name, w.Source, FormatCount(int64(w.N)), FormatCount(int64(w.M)),
					FormatCount(w.T), fmt.Sprint(w.Kappa), fmt.Sprint(kres.Kappa),
					"", "", "", // err cells filled below
					fmt.Sprint(stats.Passes), fmt.Sprint(scans), FormatFloat(stats.MeanSpace), "", "")
			}
		}

		// Worker invariance: the gate-ε estimate at 1/2/4/8 shard workers.
		if err := benchInvariance(w); err != nil {
			return nil, nil, err
		}
		bw.Metrics["invariant.workers.eps0.10"] = benchfmt.Metric{
			Value: float64(len(BenchWorkers)), Unit: "worker counts",
			Better: benchfmt.BetterExact, Class: benchfmt.ClassDeterministic,
		}

		// Raw scan throughput over the cached .bex (timing: warn-only).
		throughput, err := benchEdgesPerSecond(w)
		if err != nil {
			return nil, nil, err
		}
		bw.Metrics["edges_per_s.bex"] = benchfmt.Metric{
			Value: throughput, Unit: "edges/s",
			Better: benchfmt.BetterHigher, Class: benchfmt.ClassTiming, RelTol: 0.60,
		}

		// Bytes on disk of the cached .bex v2 file: a deterministic encoding
		// of the canonical stream.
		st, err := os.Stat(w.Path)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: bench %s: %w", w.Name, err)
		}
		bw.Metrics["bytes_on_disk.bex2"] = benchfmt.Metric{
			Value: float64(st.Size()), Unit: "bytes",
			Better: benchfmt.BetterLower, Class: benchfmt.ClassDeterministic,
			RelTol: 0.10, // block-size retunes move the footer overhead a little
		}
		bw.Metrics["wall_ms.sweep"] = benchfmt.Metric{
			Value: float64(time.Since(sweepStart).Milliseconds()), Unit: "ms",
			Better: benchfmt.BetterLower, Class: benchfmt.ClassTiming, RelTol: 1.0,
		}

		// Patch the error cells and throughput into the row added above.
		row := table.Rows[len(table.Rows)-1]
		row[7], row[8], row[9] = errCells[0], errCells[1], errCells[2]
		row[13] = FormatCount(int64(throughput))
		row[14] = FormatCount(st.Size())

		file.Workloads = append(file.Workloads, bw)
	}

	file.Notes = []string{
		fmt.Sprintf("Corpus sweep: %d graphs, %d trials per ε over ε∈{0.20,0.10,0.05}; %s scans; deterministic metrics at workers=1, estimates verified bit-identical at workers∈{1,2,4,8}.",
			len(file.Workloads), trials, mode),
	}
	table.AddNote("Deterministic metrics (err, estimate, passes, scans, space) reproduce bit-for-bit on any machine; edges/s and wall are timing metrics and only warn in benchdiff.")
	return file, table, nil
}

// benchKappa runs the streaming degeneracy peel over the workload's cache
// file with one worker (deterministic; the result is worker-invariant
// anyway).
func benchKappa(w Workload) (degen.Result, error) {
	src, err := stream.OpenAuto(w.Path)
	if err != nil {
		return degen.Result{}, fmt.Errorf("exp: bench %s: %w", w.Name, err)
	}
	defer src.Close()
	res, err := degen.Estimate(src, w.M, degen.Options{Workers: 1, KnownVertices: w.N})
	if err != nil {
		return degen.Result{}, fmt.Errorf("exp: bench %s: κ̂: %w", w.Name, err)
	}
	return res, nil
}

// BenchTrialStats extends TrialStats with the first trial's estimate (the
// determinism canary metric).
type BenchTrialStats struct {
	TrialStats
	FirstEstimate float64
}

// benchTrials runs the estimator trials for one (graph, ε) over the canonical
// file stream and returns the aggregated stats plus the physical scan count.
// Fused is the production path (all trials share scans through the
// scheduler); unfused is the injected regression (each trial scans alone).
// Per-trial estimates are bit-identical between the two — fusion is an
// execution strategy, never an approximation — so only the scan economy
// differs.
func benchTrials(w Workload, eps float64, trials int, unfused bool) (BenchTrialStats, int, error) {
	cfg := DefaultCoreConfig(w, eps)
	cfg.Workers = 1
	// The paper sizes its samples ∝ mκ/(ε²T); Config keeps the 1/ε² inside
	// the multipliers, so scale them so that ε really buys accuracy (with
	// space), normalized to DefaultCoreConfig's constants at the gate ε.
	scale := (benchGateEps * benchGateEps) / (eps * eps)
	cfg.CR, cfg.CL, cfg.CS = cfg.CR*scale, cfg.CL*scale, cfg.CS*scale

	var results []core.Result
	var scans int
	if unfused {
		results = make([]core.Result, trials)
		for i := 0; i < trials; i++ {
			src, err := stream.OpenAuto(w.Path)
			if err != nil {
				return BenchTrialStats{}, 0, fmt.Errorf("exp: bench %s: %w", w.Name, err)
			}
			runCfg := cfg
			runCfg.Seed = cfg.Seed + uint64(i)*7919
			res, rerr := core.EstimateTriangles(src, runCfg)
			src.Close()
			if rerr != nil {
				return BenchTrialStats{}, 0, fmt.Errorf("exp: bench %s trial %d: %w", w.Name, i, rerr)
			}
			results[i] = res
			scans += res.Scans
		}
	} else {
		src, err := stream.OpenAuto(w.Path)
		if err != nil {
			return BenchTrialStats{}, 0, fmt.Errorf("exp: bench %s: %w", w.Name, err)
		}
		ft, ferr := RunTrialsFused(src, w.M, trials, 1, func(c *sched.Client, trial int) (core.Result, error) {
			runCfg := cfg
			runCfg.Seed = cfg.Seed + uint64(trial)*7919
			est := core.NewEstimator(runCfg)
			return est.RunOn(c)
		})
		src.Close()
		if ferr != nil {
			return BenchTrialStats{}, 0, fmt.Errorf("exp: bench %s: %w", w.Name, ferr)
		}
		results, scans = ft.Results, ft.Scans
	}

	stats, err := aggregateTrials(results, make([]error, len(results)), float64(w.T))
	if err != nil {
		return BenchTrialStats{}, 0, fmt.Errorf("exp: bench %s: %w", w.Name, err)
	}
	return BenchTrialStats{TrialStats: stats, FirstEstimate: results[0].Estimate}, scans, nil
}

// benchInvariance recomputes trial 0's gate-ε estimate at every BenchWorkers
// count and fails hard on any divergence: shard parallelism must never change
// the estimate.
func benchInvariance(w Workload) error {
	cfg := DefaultCoreConfig(w, benchGateEps)
	var want float64
	for i, workers := range BenchWorkers {
		src, err := stream.OpenAuto(w.Path)
		if err != nil {
			return fmt.Errorf("exp: bench %s: %w", w.Name, err)
		}
		runCfg := cfg
		runCfg.Workers = workers
		res, rerr := core.EstimateTriangles(src, runCfg)
		src.Close()
		if rerr != nil {
			return fmt.Errorf("exp: bench %s workers=%d: %w", w.Name, workers, rerr)
		}
		if i == 0 {
			want = res.Estimate
		} else if res.Estimate != want {
			return fmt.Errorf("exp: bench %s: estimate at workers=%d is %v, want %v (worker invariance broken)",
				w.Name, workers, res.Estimate, want)
		}
	}
	return nil
}

// benchEdgesPerSecond times one raw scan of the cached .bex.
func benchEdgesPerSecond(w Workload) (float64, error) {
	src, err := stream.OpenAuto(w.Path)
	if err != nil {
		return 0, fmt.Errorf("exp: bench %s: %w", w.Name, err)
	}
	defer src.Close()
	start := time.Now()
	m, err := stream.CountEdges(src)
	if err != nil {
		return 0, fmt.Errorf("exp: bench %s: %w", w.Name, err)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return float64(m) / elapsed, nil
}
