// Package triangle is the public API of the library: streaming triangle
// counting for low-degeneracy graphs, implementing Bera & Seshadhri,
// "How the Degeneracy Helps for Triangle Counting in Graph Streams"
// (PODS 2020).
//
// The package offers three levels of service:
//
//   - Exact counting (Exact, ExactFile) — materializes the graph and counts
//     with an O(mκ)-time combinatorial counter; the reference answer.
//   - Approximate streaming counting (Estimate, EstimateFile) — the paper's
//     constant-pass estimator with space O~(mκ/T); never materializes the
//     graph.
//   - Structural helpers (Degeneracy, Stats) and small generators used by the
//     examples and by users who want synthetic workloads.
//
// Lower-level control (explicit sample sizes, assignment-rule ablations, the
// degree-oracle model, prior-work baselines) lives in the internal packages
// and is exercised by the benchmark harness; this facade keeps the surface a
// downstream user needs small and stable.
package triangle

import (
	"context"
	"errors"
	"fmt"
	"math"

	"degentri/internal/clique"
	"degentri/internal/core"
	"degentri/internal/graph"
	"degentri/internal/stream"
)

// Edge is an undirected edge between two non-negative vertex IDs.
//
// IDs range over [0, 2³¹ − 1], the IDs an edge file holds. Estimate,
// EstimateCtx and EstimateCliques return an error naming an edge with a
// larger ID; Exact, ExactCliques, Degeneracy and GraphStats, which return no
// error, panic on one.
type Edge struct {
	U, V int
}

// Options configures the streaming estimator.
type Options struct {
	// Epsilon is the target relative error in (0, 1); zero selects 0.1. Any
	// other value outside (0, 1) is an error.
	Epsilon float64
	// Degeneracy is an upper bound on the graph degeneracy κ. When zero the
	// library approximates one from the stream itself with the chunked
	// peeling estimator (internal/degen): O(n) words and O(log n) extra
	// passes for a certified bound κ ≤ κ̂ ≤ 2(1+ε)·κ — factor 3 at the
	// default peel slack ε = 0.5 — preserving the streaming space guarantee. Callers who know a bound (for example 3 for
	// planar-like graphs, or the attachment parameter for
	// preferential-attachment graphs) should supply it — the estimator's
	// space scales with the bound it is given. A negative bound is an error.
	Degeneracy int
	// ExactDegeneracy computes the exact κ instead of the streaming
	// approximation when Degeneracy is zero. This materializes the graph —
	// Θ(m) memory, forfeiting the streaming guarantee — and exists as the
	// escape hatch for callers who want the tightest possible bound and can
	// afford the memory.
	ExactDegeneracy bool
	// TriangleGuess is a lower-bound guess for the triangle count T used to
	// size the samples. When zero the estimator performs the standard
	// geometric search starting from the 2mκ upper bound. A negative guess
	// is an error.
	TriangleGuess int64
	// Seed makes runs reproducible. Zero means seed 1.
	Seed uint64
	// MaxSpaceWords aborts runs whose accounted space exceeds the limit
	// (0 = unlimited; negative is an error). Each estimator run is held to it on its own, and so
	// is the κ̂ peel's footprint (GroupKappa.SpaceWords: n + ⌈n/64⌉ words over
	// n vertices, plus fewer than 2n/3 + ⌈n/64⌉ more when later rounds run):
	// a budget below that aborts before any run starts. The n words of degrees
	// the session keeps after the peel are the session's, not a run's, and
	// count against no budget.
	MaxSpaceWords int64
	// SampleMultiplier scales the sample sizes, whose defaults are (8, 8, 4)
	// times 1; zero selects 1. Larger values spend more space for lower
	// variance. A negative or non-finite value is an error.
	SampleMultiplier float64
	// Workers bounds the concurrent shard workers of a single estimator run
	// (0 = GOMAXPROCS; negative is an error). Estimates are identical at any
	// worker count.
	Workers int
	// RetryAttempts bounds how many times a physical scan retries a transient
	// I/O failure (with exponential backoff) before giving up. Zero selects
	// the library default (3 attempts); a negative value disables retry
	// entirely. Retries resume a scan exactly where it failed, so a retried
	// run is bit-identical to an undisturbed one — Result.Retries reports
	// only the extra I/O spent.
	RetryAttempts int
	// DecodeCache serves repeat block reads of .bex v2 inputs from the
	// process-wide decoded-block cache (stream.SetDecodeCacheBudget sets
	// the budget), so the 2nd..Nth pass of the multi-pass algorithm skips
	// decode entirely. Purely a performance preference: estimates are
	// bit-identical with the cache on or off, at any worker count. Text is
	// served from a private, uncached v2 copy (no other stream could hit its
	// blocks).
	DecodeCache bool
	// WrapStream, when non-nil, wraps every stream the estimator opens before
	// any pass runs over it. This is a development hook — it exists for fault
	// injection (internal/faultio, the hidden trianglecount -inject flag) and
	// tests; production callers should leave it nil. The wrapper must
	// preserve the stream's contents and ordering.
	WrapStream func(stream.Stream) stream.Stream
}

// Result reports the estimate together with its resource usage.
type Result struct {
	// Estimate is the estimated number of triangles.
	Estimate float64
	// Passes is the number of logical passes over the stream — the paper's
	// pass metric. With the streamed κ̂ it counts the peel's passes, and
	// each probe of the search makes 5 passes (3 when no wedge closes or it
	// is rejected after pass 4), because the peel's first round gives every
	// probe its degrees; with a supplied Degeneracy a probe makes the
	// paper's 6 (4).
	Passes int
	// Scans is the number of physical scans of the underlying stream that
	// served those passes. The geometric search fuses the passes of its
	// speculative probes onto shared scans (and EstimateFileTrials fuses
	// whole trials), so Scans is typically below Passes; for a plain
	// fixed-guess run they are equal.
	Scans int
	// SpaceWords is the peak number of machine words the estimator retained.
	// With the streamed κ̂ that is the larger of the peel's footprint and the
	// search's words plus the n-word degree array the session keeps after
	// the peel. ScanGroup.Estimate reports the request's own words only
	// (see ScanGroup.CurrentSpaceWords for the group's).
	SpaceWords int64
	// Edges is the number of edges in the stream.
	Edges int
	// DegeneracyBound is the κ value the estimator used.
	DegeneracyBound int
	// DegeneracyApprox reports that DegeneracyBound was approximated from the
	// stream by the O(n)-space peeling estimator (Options.Degeneracy was zero
	// and ExactDegeneracy was off). The bound is then at most 2(1+ε) times
	// the true κ (3× at the default peel slack ε = 0.5); Passes and
	// SpaceWords include the peeling phase.
	DegeneracyApprox bool
	// Aborted reports that the MaxSpaceWords cutoff fired.
	Aborted bool
	// Partial reports that a deadline or cancellation interrupted the
	// geometric search after at least one probe had completed: Estimate is
	// the best accepted estimate so far rather than the fully confirmed one
	// (mirroring the MaxSpaceWords degradation path). A run cancelled before
	// any probe completed returns an error instead.
	Partial bool
	// Retries is the number of transient-fault retries the run's physical
	// scans performed. Retries never change the estimate (scans resume
	// positionally); the count is resource accounting, like Passes and Scans.
	Retries int
	// Backend is the storage backend the stream was served from ("memory",
	// "text", "bex2"). Reporting only — the estimate is bit-identical across
	// backends.
	Backend string
}

// Stats summarizes a graph's triangle-relevant structure.
type Stats struct {
	Vertices      int
	Edges         int
	Triangles     int64
	Degeneracy    int
	MaxDegree     int
	EdgeDegreeSum int64
	// Transitivity is the global clustering coefficient 3T/W.
	Transitivity float64
}

// ErrNoEdges is returned when an estimate is requested over an empty input.
var ErrNoEdges = errors.New("triangle: input contains no edges")

// ErrSparseIDs is wrapped by the error of a computation refused because its
// vertex IDs are too sparse: n, one more than the largest vertex ID, is above
// both 2m + 1 and 2²³, and the computation would allocate n-slot arrays. The
// streamed degeneracy bound's peel refuses such a stream (supplying
// Options.Degeneracy skips the peel), and so do the entry points that build
// the graph and return an error: ExactFile, GraphStatsFile, ExactDegeneracy,
// Estimate, EstimateCtx and EstimateCliques.
var ErrSparseIDs = graph.ErrSparseIDs

// checkEdgeIDs returns an error naming the first edge with an endpoint above
// graph.MaxVertexID, which no stored edge holds, or one wrapping ErrSparseIDs
// when buildGraph would allocate too many vertex slots for the edges.
func checkEdgeIDs(edges []Edge) error {
	top := -1
	for _, e := range edges {
		if e.U > graph.MaxVertexID || e.V > graph.MaxVertexID {
			return fmt.Errorf("triangle: edge (%d,%d) has a vertex id above %d", e.U, e.V, graph.MaxVertexID)
		}
		if e.U != e.V && e.U >= 0 && e.V >= 0 {
			top = max(top, e.U, e.V)
		}
	}
	if err := graph.CheckDenseIDs(top+1, len(edges)); err != nil {
		return fmt.Errorf("triangle: %w", err)
	}
	return nil
}

// buildGraph builds the simple graph of edges, dropping loops and edges with
// a negative ID. An ID above graph.MaxVertexID panics; callers that return
// an error run checkEdgeIDs first.
func buildGraph(edges []Edge) *graph.Graph {
	b := graph.NewBuilder(0)
	for _, e := range edges {
		if e.U != e.V && e.U >= 0 && e.V >= 0 {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// Exact returns the exact triangle count of the graph given as an edge list.
// Duplicate edges and self loops are ignored. It panics on an ID above
// 2³¹ − 1 (see Edge). Like Degeneracy, GraphStats and ExactCliques it builds
// a graph with one vertex slot per ID up to the largest, however few edges
// name them, and returns no error: IDs too sparse for the edge count (see
// ErrSparseIDs) cost that memory here.
func Exact(edges []Edge) int64 {
	return buildGraph(edges).TriangleCount()
}

// ExactFile returns the exact triangle count of an edge file: a
// whitespace-separated edge list ("u v" per line, # and % comments allowed)
// or a binary .bex file (see cmd/graphgen for the converter). IDs too sparse
// for the file's edge count are refused with an error wrapping ErrSparseIDs.
func ExactFile(path string) (int64, error) {
	fs, err := stream.OpenAuto(path)
	if err != nil {
		return 0, err
	}
	defer fs.Close()
	g, err := stream.Materialize(fs)
	if err != nil {
		return 0, err
	}
	return g.TriangleCount(), nil
}

// Degeneracy returns the exact degeneracy κ of the graph given as an edge
// list. It panics on an ID above 2³¹ − 1 (see Edge), and allocates a slot
// per ID up to the largest (see Exact).
func Degeneracy(edges []Edge) int {
	return buildGraph(edges).Degeneracy()
}

// GraphStats computes the exact structural summary of an edge list. It
// panics on an ID above 2³¹ − 1 (see Edge), and allocates a slot per ID up
// to the largest (see Exact).
func GraphStats(edges []Edge) Stats {
	return statsOf(buildGraph(edges))
}

// GraphStatsFile computes the exact structural summary of an edge file
// (text edge list or .bex). IDs too sparse for the file's edge count are
// refused with an error wrapping ErrSparseIDs.
func GraphStatsFile(path string) (Stats, error) {
	fs, err := stream.OpenAuto(path)
	if err != nil {
		return Stats{}, err
	}
	defer fs.Close()
	g, err := stream.Materialize(fs)
	if err != nil {
		return Stats{}, err
	}
	return statsOf(g), nil
}

func statsOf(g *graph.Graph) Stats {
	return Stats{
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		Triangles:     g.TriangleCount(),
		Degeneracy:    g.Degeneracy(),
		MaxDegree:     g.MaxDegree(),
		EdgeDegreeSum: g.EdgeDegreeSum(),
		Transitivity:  g.GlobalClusteringCoefficient(),
	}
}

// Estimate runs the streaming estimator over the edge list (streamed in a
// seeded arbitrary order). For callers that already hold all edges in memory
// this is mostly useful for testing configurations; EstimateFile is the
// streaming entry point.
//
// The edge list is canonicalized before streaming: duplicate edges, self
// loops, and negative-ID edges are dropped, so the estimate targets the
// simple graph and Result.Edges reports the deduplicated count. This differs
// from EstimateFile, which streams the file verbatim (multigraph semantics).
// An input whose every edge is a loop or negative returns ErrNoEdges, the
// same as an empty list; an ID above 2³¹ − 1 is an error (see Edge), and so
// are IDs too sparse for the edge count (ErrSparseIDs).
func Estimate(edges []Edge, opts Options) (Result, error) {
	return EstimateCtx(context.Background(), edges, opts)
}

// EstimateCtx is Estimate honoring a context: cancellation or a deadline
// aborts the run within one batch boundary of the active scan, returning an
// error wrapping ctx's cause (errors.Is(err, context.Canceled) or
// context.DeadlineExceeded hold, and core.ErrAborted / core.ErrDeadline brand
// which). A run interrupted after at least one accepted probe degrades
// gracefully instead: it returns the best estimate so far with Result.Partial
// set and a nil error.
func EstimateCtx(ctx context.Context, edges []Edge, opts Options) (Result, error) {
	if err := checkOptions(opts); err != nil {
		return Result{}, err
	}
	if len(edges) == 0 {
		return Result{}, ErrNoEdges
	}
	if err := checkEdgeIDs(edges); err != nil {
		return Result{}, err
	}
	g := buildGraph(edges)
	if g.NumEdges() == 0 {
		// Every edge was a self loop or had a negative ID; after filtering
		// the stream is as empty as a nil input.
		return Result{}, ErrNoEdges
	}
	if opts.Degeneracy <= 0 && opts.ExactDegeneracy {
		// The graph is already materialized here, so "exact" is free.
		opts.Degeneracy = max(g.Degeneracy(), 1)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	tr, err := estimateTrials(ctx, stream.FromGraphShuffled(g, seed), stream.BackendMemory, opts, 1)
	return tr.single(), err
}

// EstimateFile runs the streaming estimator over an edge file (text edge
// list or .bex) without materializing the graph: when opts.Degeneracy is
// zero, the degeneracy bound is approximated from the stream in O(n) words
// and O(log n) extra passes (set opts.ExactDegeneracy for the old exact,
// Θ(m)-memory computation).
//
// The file is streamed verbatim, as the arbitrary-order model prescribes:
// duplicate lines count as parallel edges that inflate m, degrees, and the
// estimate. A self-loop counts in m and is ignored by every pass: it adds to
// no degree, no vertex samples itself as a neighbor, and a sampled loop
// closes no wedge. Callers whose files may contain duplicates and who want
// simple-graph semantics should deduplicate first (cmd/graphgen -convert
// does); Estimate canonicalizes its in-memory input and is the reference
// for the deduplicated answer.
func EstimateFile(path string, opts Options) (Result, error) {
	return EstimateFileCtx(context.Background(), path, opts)
}

// EstimateFileCtx is EstimateFile honoring a context; see EstimateCtx for
// the cancellation, degradation, and retry semantics.
func EstimateFileCtx(ctx context.Context, path string, opts Options) (Result, error) {
	tr, err := EstimateFileTrialsCtx(ctx, path, opts, 1)
	return tr.single(), err
}

// single reports a one-trial session as a Result; the mean of one trial is
// its estimate.
func (tr TrialsResult) single() Result {
	return Result{
		Estimate:         tr.Mean,
		Passes:           tr.Passes,
		Scans:            tr.Scans,
		SpaceWords:       tr.SpaceWords,
		Edges:            tr.Edges,
		DegeneracyBound:  tr.DegeneracyBound,
		DegeneracyApprox: tr.DegeneracyApprox,
		Aborted:          tr.Aborted,
		Partial:          tr.Partial,
		Retries:          tr.Retries,
		Backend:          tr.Backend,
	}
}

// checkAccuracy rejects an ε or sample multiplier the estimator cannot use.
// Zero selects the default; any other value out of range is the caller's
// error, never replaced by the default.
func checkAccuracy(eps, mult float64) error {
	if eps != 0 && !(eps > 0 && eps < 1) {
		return fmt.Errorf("triangle: Epsilon must be in (0, 1), or 0 for the default, got %v", eps)
	}
	if !(mult >= 0 && mult <= math.MaxFloat64) {
		return fmt.Errorf("triangle: SampleMultiplier must be positive and finite, or 0 for the default, got %v", mult)
	}
	return nil
}

// checkOptions is checkAccuracy plus the bounds and budgets of Options: a
// negative Degeneracy, TriangleGuess, Workers or MaxSpaceWords is an error,
// and zero selects the default.
func checkOptions(opts Options) error {
	if err := checkAccuracy(opts.Epsilon, opts.SampleMultiplier); err != nil {
		return err
	}
	if err := checkNonNegative("Degeneracy", int64(opts.Degeneracy)); err != nil {
		return err
	}
	if err := checkNonNegative("TriangleGuess", opts.TriangleGuess); err != nil {
		return err
	}
	if err := checkNonNegative("Workers", int64(opts.Workers)); err != nil {
		return err
	}
	return checkNonNegative("MaxSpaceWords", opts.MaxSpaceWords)
}

// checkCliqueOptions is checkAccuracy plus a clique size in [3, 8], a
// positive CliqueGuess and a non-negative Degeneracy. Callers run it before
// resolving κ, the expensive part of a clique request.
func checkCliqueOptions(opts CliqueOptions) error {
	if opts.K < 3 || opts.K > 8 {
		return fmt.Errorf("triangle: K must be between 3 and 8, got %d", opts.K)
	}
	if opts.CliqueGuess < 1 {
		return fmt.Errorf("triangle: CliqueGuess must be a positive lower bound on the %d-clique count", opts.K)
	}
	if err := checkAccuracy(opts.Epsilon, opts.SampleMultiplier); err != nil {
		return err
	}
	return checkNonNegative("Degeneracy", int64(opts.Degeneracy))
}

func checkNonNegative(name string, v int64) error {
	if v < 0 {
		return fmt.Errorf("triangle: %s must be non-negative, or 0 for the default, got %d", name, v)
	}
	return nil
}

// coreConfig maps the facade options onto an estimator configuration. It is
// the single source of the library defaults (ε = 0.1, CR/CL/CS = 8/8/4 ×
// multiplier, seed 1), which cliqueConfig shares. A zero ε or multiplier
// selects the default; checkOptions has rejected every other bad value.
func coreConfig(opts Options, kappa int) core.Config {
	eps := opts.Epsilon
	if eps == 0 {
		eps = 0.1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	mult := opts.SampleMultiplier
	if mult == 0 {
		mult = 1
	}
	cfg := core.DefaultConfig(eps, kappa, 1)
	cfg.CR, cfg.CL, cfg.CS = 8*mult, 8*mult, 4*mult
	cfg.Seed = seed
	cfg.MaxSpaceWords = opts.MaxSpaceWords
	return cfg
}

// cliqueConfig maps the clique options onto the k-clique estimator's
// configuration, with coreConfig's defaults for ε, seed and the CR/CL
// multipliers.
func cliqueConfig(opts CliqueOptions, kappa int) clique.Config {
	c := coreConfig(Options{Epsilon: opts.Epsilon, Seed: opts.Seed, SampleMultiplier: opts.SampleMultiplier}, kappa)
	cfg := clique.DefaultConfig(opts.K, c.Epsilon, kappa, opts.CliqueGuess)
	cfg.CR, cfg.CL = c.CR, c.CL
	cfg.Seed = c.Seed
	return cfg
}

// retryPolicy maps Options.RetryAttempts onto the scan engine's policy:
// zero = the library default, negative = disabled, positive = that attempt
// bound with the default backoff schedule.
func retryPolicy(opts Options) stream.RetryPolicy {
	switch {
	case opts.RetryAttempts < 0:
		return stream.RetryPolicy{}
	case opts.RetryAttempts == 0:
		return stream.DefaultRetryPolicy()
	default:
		p := stream.DefaultRetryPolicy()
		p.MaxAttempts = opts.RetryAttempts
		return p
	}
}
