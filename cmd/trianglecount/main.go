// Command trianglecount estimates (or exactly counts) the triangles of a
// graph given as a whitespace-separated edge-list file or a binary .bex v2
// file (see cmd/graphgen -convert). Any other binary input, such as a
// retired .bex v1 file or a directory, is rejected at open with exit code 3.
//
// Usage:
//
//	trianglecount -input graph.txt                      # streaming estimate, auto parameters (κ approximated in-stream)
//	trianglecount -input graph.bex -workers 8           # binary input, explicit shard workers
//	trianglecount -input graph.txt -kappa 4 -guess 1e6  # streaming estimate, explicit bounds
//	trianglecount -input graph.txt -trials 8            # mean ± stderr over keyed seeds, trials fused onto shared scans
//	trianglecount -input graph.txt -timeout 30s         # abort (or degrade to a partial estimate) at the deadline
//	trianglecount -input graph.txt -exact-kappa         # exact κ bound (materializes the graph)
//	trianglecount -input graph.txt -exact               # exact count (materializes the graph)
//	trianglecount -input graph.txt -stats               # exact structural summary
//
// SIGINT cancels a running estimate gracefully (same path as -timeout).
//
// Exit codes: 0 success; 1 internal error; 2 usage error; 3 I/O error
// (missing, truncated, or corrupt input); 4 aborted (deadline, interrupt, or
// space budget — including runs that printed a partial estimate).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"

	"degentri/internal/buildinfo"
	"degentri/internal/core"
	"degentri/internal/faultio"
	"degentri/internal/stream"
	"degentri/triangle"
)

const (
	exitInternal = 1
	exitUsage    = 2
	exitIO       = 3
	exitAborted  = 4
)

func main() {
	var (
		input   = flag.String("input", "", "path to the edge-list file (required)")
		exact   = flag.Bool("exact", false, "compute the exact triangle count instead of estimating")
		stats   = flag.Bool("stats", false, "print the exact structural summary (n, m, T, κ, ∆, transitivity)")
		epsilon = flag.Float64("epsilon", 0.1, "target relative error of the estimate")
		kappa   = flag.Int("kappa", 0, "upper bound on the degeneracy (0 = streaming 3-approximation in O(n) space)")
		exactK  = flag.Bool("exact-kappa", false, "with -kappa 0, compute the exact degeneracy instead (materializes the graph, Θ(m) memory)")
		guess   = flag.Int64("guess", 0, "lower-bound guess for the triangle count (0 = geometric search)")
		seed    = flag.Uint64("seed", 1, "random seed")
		mult    = flag.Float64("multiplier", 1, "sample-size multiplier (>1 trades space for accuracy)")
		workers = flag.Int("workers", 0, "shard workers per pass (0 = all cores); the estimate is identical at any setting")
		dcache  = flag.Int64("decode-cache", stream.DefaultDecodeCacheBytes, "byte budget of the decoded-block cache serving repeat .bex v2 block reads (0 disables); the estimate is identical")
		trials  = flag.Int("trials", 1, "independent estimator runs over keyed seeds (trial 0 = -seed), fused onto shared physical scans; reports mean ± stderr")
		timeout = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline); a run interrupted mid-search reports its best estimate so far as partial")
		retries = flag.Int("retries", 0, "transient I/O fault retry attempts per scan (0 = default 3, negative = disabled); retries never change the estimate")
		inject  = flag.String("inject", "", "dev: fault-injection spec, e.g. seed=7,every=3,max=10,kinds=eio+reset (see internal/faultio)")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("trianglecount"))
		return
	}
	if *input == "" {
		fmt.Fprintln(os.Stderr, "trianglecount: -input is required")
		flag.Usage()
		os.Exit(exitUsage)
	}
	// The library rejects these too; checking here names the flag and exits
	// with the usage code before any input is read. Zero selects the library
	// default, except for -trials.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "trianglecount: "+format+"\n", args...)
		os.Exit(exitUsage)
	}
	switch {
	case *epsilon != 0 && !(*epsilon > 0 && *epsilon < 1):
		usage("-epsilon must be in (0, 1), got %v", *epsilon)
	case !(*mult >= 0 && *mult <= math.MaxFloat64):
		usage("-multiplier must be positive and finite, got %v", *mult)
	case *kappa < 0:
		usage("-kappa must be non-negative, got %d", *kappa)
	case *guess < 0:
		usage("-guess must be non-negative, got %d", *guess)
	case *workers < 0:
		usage("-workers must be non-negative, got %d", *workers)
	case *trials < 1:
		usage("-trials must be positive, got %d", *trials)
	}

	// One context serves the deadline and Ctrl-C: both cancel the active scan
	// within a batch boundary and unwind with exit code 4.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stream.SetDecodeCacheBudget(*dcache)
	opts := triangle.Options{
		Epsilon:          *epsilon,
		Degeneracy:       *kappa,
		ExactDegeneracy:  *exactK,
		TriangleGuess:    *guess,
		Seed:             *seed,
		SampleMultiplier: *mult,
		Workers:          *workers,
		RetryAttempts:    *retries,
		DecodeCache:      *dcache > 0,
	}
	if *inject != "" {
		plan, err := faultio.ParsePlan(*inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trianglecount:", err)
			os.Exit(exitUsage)
		}
		if plan.Enabled() {
			opts.WrapStream = func(s stream.Stream) stream.Stream { return faultio.New(s, plan) }
		}
	}

	switch {
	case *stats:
		s, err := triangle.GraphStatsFile(*input)
		exitOn(err)
		fmt.Printf("vertices      %d\n", s.Vertices)
		fmt.Printf("edges         %d\n", s.Edges)
		fmt.Printf("triangles     %d\n", s.Triangles)
		fmt.Printf("degeneracy    %d\n", s.Degeneracy)
		fmt.Printf("max degree    %d\n", s.MaxDegree)
		fmt.Printf("d_E           %d\n", s.EdgeDegreeSum)
		fmt.Printf("transitivity  %.6f\n", s.Transitivity)
	case *exact:
		t, err := triangle.ExactFile(*input)
		exitOn(err)
		fmt.Printf("exact triangle count: %d\n", t)
	case *trials > 1:
		res, err := triangle.EstimateFileTrialsCtx(ctx, *input, opts, *trials)
		exitOn(err)
		fmt.Printf("estimated triangles: %.1f ± %.1f (stderr over %d fused trials)\n", res.Mean, res.StdErr, res.Trials)
		fmt.Printf("trial estimates:    ")
		for _, e := range res.Estimates {
			fmt.Printf(" %.1f", e)
		}
		fmt.Println()
		fmt.Printf("edges:               %d\n", res.Edges)
		fmt.Printf("degeneracy bound:    %d (%s)\n", res.DegeneracyBound, kappaSource(res.DegeneracyApprox, *kappa))
		fmt.Printf("backend:             %s\n", stream.DescribeBackend(res.Backend, opts.DecodeCache))
		fmt.Printf("cost:                passes=%d scans=%d retries=%d space=%d words\n", res.Passes, res.Scans, res.Retries, res.SpaceWords)
		if res.Aborted {
			fmt.Println("warning: at least one trial hit the space cutoff; the mean is unreliable")
			os.Exit(exitAborted)
		}
		if res.Partial {
			fmt.Println("warning: at least one trial was interrupted and reports its best estimate so far")
			os.Exit(exitAborted)
		}
	default:
		res, err := triangle.EstimateFileCtx(ctx, *input, opts)
		exitOn(err)
		fmt.Printf("estimated triangles: %.1f\n", res.Estimate)
		fmt.Printf("edges:               %d\n", res.Edges)
		fmt.Printf("degeneracy bound:    %d (%s)\n", res.DegeneracyBound, kappaSource(res.DegeneracyApprox, *kappa))
		fmt.Printf("backend:             %s\n", stream.DescribeBackend(res.Backend, opts.DecodeCache))
		fmt.Printf("cost:                passes=%d scans=%d retries=%d space=%d words\n", res.Passes, res.Scans, res.Retries, res.SpaceWords)
		if res.Aborted {
			fmt.Println("warning: run aborted at the space cutoff; the estimate is unreliable")
			os.Exit(exitAborted)
		}
		if res.Partial {
			fmt.Println("warning: run interrupted; the estimate is the best accepted so far, not fully confirmed")
			os.Exit(exitAborted)
		}
	}
}

// kappaSource labels where the degeneracy bound came from.
func kappaSource(approx bool, kappaFlag int) string {
	switch {
	case approx:
		return "streaming approx"
	case kappaFlag <= 0:
		return "exact, materialized"
	default:
		return "supplied"
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "trianglecount:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode classifies an error for scripts: aborts (deadline, cancellation)
// are 4, input I/O problems are 3, everything else is an internal error.
func exitCode(err error) int {
	var perr *fs.PathError
	switch {
	case errors.Is(err, core.ErrDeadline), errors.Is(err, core.ErrAborted),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return exitAborted
	case errors.Is(err, stream.ErrTruncated), errors.Is(err, stream.ErrCorruptHeader),
		errors.Is(err, stream.ErrCorruptBlock),
		errors.Is(err, fs.ErrNotExist), errors.Is(err, fs.ErrPermission), errors.As(err, &perr):
		return exitIO
	default:
		return exitInternal
	}
}
