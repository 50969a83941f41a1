// Package degen approximates the graph degeneracy κ from an edge stream in
// O(n) words and O(log n) passes, replacing the Θ(m) materializing fallback
// the facade used when a caller supplied no degeneracy bound.
//
// # Algorithm: chunked peeling
//
// The exact degeneracy is the maximum observed degree over a minimum-degree
// peeling — inherently sequential and Θ(n + m) space. The streaming relaxation
// peels in chunks: each round makes one pass counting the degrees of the
// subgraph induced by the not-yet-removed ("alive") vertices and then removes
// every alive vertex whose induced degree is at most the round's cutoff
//
//	cut = 2·(1+ε)·(m'/n'),
//
// twice the (1+ε)-slackened density of the alive subgraph (m' induced edges,
// n' alive vertices). Two facts make this work:
//
//   - Upper bound: concatenating the rounds' removals gives a vertex ordering
//     in which every vertex has at most deg_removed(v) later neighbors, so
//     κ ≤ max over all removed v of its removal degree (Kappa below). Each
//     removal degree is ≤ its round's cut ≤ 2(1+ε)·max density ≤ 2(1+ε)·κ,
//     since the density m'/n' of any subgraph lower-bounds κ. Hence
//     κ ≤ Kappa ≤ 2(1+ε)·κ — a (2+ε')-approximation with ε' = 2ε.
//   - Progress: vertices surviving a round have degree > 2(1+ε)m'/n', and
//     degrees sum to 2m', so fewer than n'/(1+ε) survive. The alive set
//     shrinks geometrically and the loop ends in O(log n / log(1+ε)) rounds;
//     the cut value "threshold" each round rises with the density of the
//     ever-denser surviving core.
//
// The per-round degree pass is passes.CountDegreesMasked restricted by a
// graph.Bitset of alive vertices. Round 1, with every vertex alive, counts
// every vertex's degree; the peel keeps that array (EstimateWithDegrees hands
// it to the caller as a degree oracle). Later rounds count only the alive
// vertices, numbered by their rank in the bitset, into a second array sized
// to round 1's survivors (fewer than n/(1+ε)), so the peel never holds two
// n-slot arrays. The retained state is those two dense int32 arrays, the
// bitset and its per-word rank base — O(n) words, versus the Θ(m) adjacency
// the exact computation needs. Every pass runs on the sharded pass engine
// and is deterministic at any worker count (pure counting, no randomness),
// so the estimate honors the repository's (seed, passKey, mergeKey)
// invariance contract trivially.
//
// The peel is expressed against passes.Executor (EstimateOn), so it can run
// as a scan-scheduler client: when another client of the same scheduler has
// a pass pending at the same time as a peel round — independent trials each
// resolving κ, or a trial's peel next to another trial's core passes — the
// two share one physical scan. Estimate is the standalone entry point: the
// peel is the one client of its own scheduler (passes.NewDirect), so each
// pass is its own scan.
package degen

import (
	"context"
	"fmt"

	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/stream"
)

// DefaultEpsilon is the peel slack ε used when Options.Epsilon is zero: the
// returned bound is at most 2(1+ε) = 3 times the true degeneracy, and the
// alive set shrinks by a factor ≥ 1+ε = 1.5 per round (≤ ~35 rounds at
// n = 10⁶).
const DefaultEpsilon = 0.5

// Options configures the peeling estimator.
type Options struct {
	// Epsilon is the peel slack ε > 0. The returned Kappa satisfies
	// κ ≤ Kappa ≤ 2(1+ε)·κ and the pass count is O(log n / log(1+ε)).
	// Zero selects DefaultEpsilon.
	Epsilon float64
	// Workers bounds the concurrent shard workers of each pass
	// (0 = GOMAXPROCS). The result is identical at any worker count. Only
	// Estimate consults it; EstimateOn inherits the executor's worker bound.
	Workers int
	// KnownVertices, when positive, is n = 1 + the largest vertex ID of the
	// stream, already discovered by the caller (typically fused into its
	// edge-counting scan via stream.CountEdgesAndMaxIDCtx); the peel then skips
	// its own discovery pass. Zero means unknown: one MaxVertexID pass is
	// spent discovering it.
	KnownVertices int
}

// Result reports the approximation together with its resource usage.
type Result struct {
	// Kappa is the certified upper bound on the degeneracy: the maximum
	// induced degree any vertex had at the moment it was peeled. It satisfies
	// κ ≤ Kappa ≤ 2(1+ε)·κ (0 for edgeless streams).
	Kappa int
	// LowerBound is the certified density lower bound ⌈max over rounds of
	// m'/n'⌉ ≤ κ.
	LowerBound int
	// Rounds is the number of peeling rounds (degree passes).
	Rounds int
	// Passes is the total number of stream passes: one vertex-ID discovery
	// pass plus Rounds.
	Passes int
	// Vertices is n, one more than the largest vertex ID seen (the size of
	// the dense peeling state).
	Vertices int
	// SpaceWords is the accounted peak space in machine words: round 1's
	// degree array (n, one word per int32 slot) and the alive bitset
	// (⌈n/64⌉), plus from round 2 on a working array with one slot per
	// survivor of round 1 and the bitset's rank base (⌈n/64⌉).
	SpaceWords int64
}

// Estimate approximates the degeneracy of a stream of m edges. Self-loops,
// negative IDs, and duplicate edges are tolerated: loops and negatives are
// ignored, duplicates inflate degrees and can only raise the bound (which
// keeps it a valid upper bound for the underlying simple graph). Each pass
// is its own physical scan; EstimateOn is the executor-based variant that a
// scan scheduler can fuse with other pending passes.
func Estimate(s stream.Stream, m int, opts Options) (Result, error) {
	if m == 0 {
		return Result{}, nil
	}
	return EstimateOn(passes.NewDirect(s, m, opts.Workers), opts)
}

// EstimateOn is Estimate running its passes through the given executor (the
// stream length and worker bound are the executor's). When the executor is a
// scan-scheduler client, every peel round fuses with whatever passes other
// clients have pending — this is how a peel shares scans with an unrelated
// client's work.
func EstimateOn(x passes.Executor, opts Options) (Result, error) {
	res, _, err := EstimateWithDegrees(x, opts)
	return res, err
}

// EstimateWithDegrees is EstimateOn that also returns round 1's degree
// array: deg[v] is the degree of v over the whole stream, self-loops skipped
// and duplicate edges counted (passes.CountDegreesMasked's rule), for every
// v in [0, Vertices); an ID outside that range has degree 0. The array is
// nil when nothing was peeled or the peel failed. It is the caller's from
// then on; the peel no longer charges its words.
//
// The peel charges its words to the executor's meter as each array is
// allocated and releases them on return, so concurrent peels of fused runs
// show up in the group peak while they are actually live.
func EstimateWithDegrees(x passes.Executor, opts Options) (Result, []int32, error) {
	eps := opts.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	res := Result{}
	m := x.M()
	if m == 0 {
		return res, nil, nil
	}

	var maxID int
	if opts.KnownVertices > 0 {
		maxID = opts.KnownVertices - 1
	} else {
		var err error
		maxID, err = passes.MaxVertexID(x)
		res.Passes++
		if err != nil {
			return res, nil, fmt.Errorf("degen: vertex-ID pass: %w", err)
		}
	}
	if maxID < 0 {
		// Every edge had negative endpoints; nothing peelable.
		return res, nil, nil
	}
	n := maxID + 1
	res.Vertices = n

	// charge accounts one more array of n degree slots (int32 charged
	// conservatively at a full word, matching the repository's per-counter
	// accounting) or the bitset's words.
	meter := stream.NewSpaceMeter()
	meter.Tee(x.Meter())
	defer func() { meter.Release(meter.Current()) }()
	charge := func(words int64) {
		res.SpaceWords += words
		meter.Charge(words)
	}
	alive := graph.NewBitset(n)
	alive.SetAll()
	degrees := make([]int32, n)
	charge(int64(n) + int64((n+63)/64))

	// Round 1 counts into degrees by vertex ID (every vertex is alive, so the
	// ID is the rank), and degrees is kept. Later rounds count into deg by
	// rank among the alive vertices: it is allocated at round 2 for round
	// 1's survivors and shortened as the alive set shrinks.
	deg := degrees
	var rank []int32
	aliveCount := n
	for aliveCount > 0 {
		// The pass below polls the context every batch; this check stops a
		// cancelled peel from starting another round.
		if cerr := x.Context().Err(); cerr != nil {
			return res, nil, fmt.Errorf("degen: peel cancelled before round %d: %w", res.Rounds+1, context.Cause(x.Context()))
		}
		if res.Rounds == 1 {
			rank = make([]int32, (n+63)/64)
			deg = make([]int32, aliveCount)
			charge(int64(len(rank)) + int64(aliveCount))
		}
		if rank != nil {
			alive.RankBase(rank)
			deg = deg[:aliveCount]
		}
		clear(deg)
		induced, err := passes.CountDegreesMasked(x, alive, rank, deg)
		res.Rounds++
		res.Passes++
		if err != nil {
			return res, nil, fmt.Errorf("degen: peel round %d: %w", res.Rounds, err)
		}

		// Density lower bound κ ≥ ⌈m'/n'⌉ (m' ≤ κ·n' for any subgraph).
		if lb := int((induced + int64(aliveCount) - 1) / int64(aliveCount)); lb > res.LowerBound {
			res.LowerBound = lb
		}
		cut := 2 * (1 + eps) * float64(induced) / float64(aliveCount)

		// ForEach visits the alive vertices in rank order, so the i-th one's
		// induced degree is deg[i].
		removed, minDeg, i := 0, int32(-1), 0
		alive.ForEach(func(v int) {
			d := deg[i]
			i++
			if float64(d) <= cut {
				alive.Unset(v)
				removed++
				if int(d) > res.Kappa {
					res.Kappa = int(d)
				}
			} else if minDeg < 0 || d < minDeg {
				minDeg = d
			}
		})
		// The counting argument guarantees progress (survivors number fewer
		// than n'/(1+ε)), so this fallback is unreachable in exact arithmetic;
		// it pins termination against any float corner case by peeling the
		// minimum-degree layer directly.
		if removed == 0 {
			i = 0
			alive.ForEach(func(v int) {
				if deg[i] == minDeg {
					alive.Unset(v)
					removed++
				}
				i++
			})
			if int(minDeg) > res.Kappa {
				res.Kappa = int(minDeg)
			}
		}
		aliveCount -= removed
	}
	return res, degrees, nil
}
