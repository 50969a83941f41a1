package baseline

import (
	"fmt"
	"math"

	"degentri/internal/core"
	"degentri/internal/graph"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

// NeighborSamplingConfig configures the one-pass neighbor-sampling estimator.
type NeighborSamplingConfig struct {
	// Estimators is the number of parallel estimator copies (the space is
	// proportional to it; Θ(m∆/(ε²T)) copies give a (1±ε) estimate).
	Estimators int
	// Groups > 1 aggregates the copies by median-of-means instead of the
	// plain mean.
	Groups int
	// Seed drives all sampling.
	Seed uint64
}

// neighborCopies is the state of all estimator copies in struct-of-arrays
// layout: the per-edge loop touches every copy, so the state is packed into
// parallel arrays (uint32 endpoint halves, one packed word for the closing
// edge) to minimize memory traffic.
//
// Both reservoirs use skip-ahead stepping: instead of drawing one random
// number per candidate (accept the t-th candidate with probability 1/t), a
// copy precomputes the index of its next acceptance. For a size-1 reservoir
// the next accepted index T after an acceptance at t satisfies
// P(T > j) = t/j, so T = ⌈t/U⌉ for U uniform in (0,1) — one draw per
// acceptance, ~ln(m) draws per pass instead of m, with exactly the same
// output distribution.
type neighborCopies struct {
	r1      []uint64 // packed level-1 sampled edge r1 (U in the high half)
	closing []uint64 // packed closing edge, or a marker (see below)
	level2  []level2State
}

// level2State keeps a copy's adjacency counter next to its scheduled
// acceptance so the adjacency-hit path touches one cache line.
type level2State struct {
	c    int64 // edges adjacent to r1 seen after r1 was sampled
	next int64 // value of c at the next level-2 acceptance
}

// acceptanceHeap schedules level-1 reservoir acceptances: a min-heap of
// (position << 32 | copy) words. Ties pop in copy order, matching a
// sequential per-copy scan.
type acceptanceHeap struct {
	a []uint64
}

// Heap entries pack the position into the high 40 bits and the copy index
// into the low 24. A copy whose next acceptance lands beyond acceptHorizon
// is retired from level-1 scheduling instead of being re-queued: re-queuing
// it at a clamped position would make it due again on the same edge forever
// once the stream actually reached that position. The horizon (2^40 edges,
// ~17 TB of text) is beyond any stream this repository can replay.
const (
	acceptHorizon = int64(1) << 40
	copyIndexBits = 24
	maxCopies     = 1<<copyIndexBits - 1
)

func newAcceptanceHeap(k int) *acceptanceHeap {
	h := &acceptanceHeap{a: make([]uint64, k)}
	for i := 0; i < k; i++ {
		h.a[i] = 1<<copyIndexBits | uint64(i) // position 1 for every copy; already heap-ordered
	}
	return h
}

// duePos returns the smallest scheduled position (0 when empty).
func (h *acceptanceHeap) duePos() int64 {
	if len(h.a) == 0 {
		return 0
	}
	return int64(h.a[0] >> copyIndexBits)
}

// popCopy removes the minimum entry and returns its copy index.
func (h *acceptanceHeap) popCopy() int {
	root := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		if r := l + 1; r < last && h.a[r] < h.a[l] {
			l = r
		}
		if h.a[i] <= h.a[l] {
			break
		}
		h.a[i], h.a[l] = h.a[l], h.a[i]
		i = l
	}
	return int(root & maxCopies)
}

// push schedules copy i at the given position; positions past the horizon
// are dropped (the copy keeps its current r1 for the rest of the run).
func (h *acceptanceHeap) push(pos int64, i int) {
	if pos >= acceptHorizon {
		return
	}
	h.a = append(h.a, uint64(pos)<<copyIndexBits|uint64(i))
	// Sift up.
	c := len(h.a) - 1
	for c > 0 {
		p := (c - 1) / 2
		if h.a[p] <= h.a[c] {
			break
		}
		h.a[p], h.a[c] = h.a[c], h.a[p]
		c = p
	}
}

// closing markers: bit 63 never appears in a packed edge (endpoints are
// non-negative int32s), so these values cannot collide with a real key.
const (
	noWedge     = uint64(1) << 63 // no level-2 edge sampled yet
	wedgeClosed = noWedge + 1     // the current wedge's closing edge arrived
)

// reservoirSkip returns the index of the next acceptance of a size-1
// reservoir whose last acceptance was at index t >= 1.
func reservoirSkip(t int64, rng *sampling.RNG) int64 {
	next := int64(math.Ceil(float64(t) / rng.Float64Open()))
	if next <= t { // guard against rounding at U ≈ 1
		next = t + 1
	}
	return next
}

// NeighborSampling implements the single-pass neighbor-sampling estimator of
// Pavan, Tangwongsan, Tirthapura, Wu (VLDB 2013). Each copy reservoir-samples
// an edge r1, then reservoir-samples an edge r2 among the later edges that
// share an endpoint with r1 (tracking their number c), and finally watches
// for the unique edge that closes the wedge {r1, r2}. The per-copy estimate
// is m·c when the wedge closed and 0 otherwise; every triangle is counted via
// its stream-order-first two edges, so the estimator is unbiased. Accuracy to
// (1±ε) requires Θ(m∆/(ε²T)) copies — the ∆ dependence is what the paper's
// degeneracy-based algorithm removes.
//
// Vertex IDs must be non-negative (they are dense array indices everywhere
// in this repository); a negative ID is rejected with an error.
func NeighborSampling(src stream.Stream, cfg NeighborSamplingConfig) (core.Result, error) {
	if cfg.Estimators < 1 {
		return core.Result{}, fmt.Errorf("baseline: neighbor sampling needs at least one estimator, got %d", cfg.Estimators)
	}
	if cfg.Estimators > maxCopies {
		return core.Result{}, fmt.Errorf("baseline: neighbor sampling supports at most %d estimators, got %d", maxCopies, cfg.Estimators)
	}
	rng := sampling.NewRNG(cfg.Seed)
	meter := stream.NewSharedMeter(nil)
	counter := stream.NewPassCounter(src)

	k := cfg.Estimators
	copies := neighborCopies{
		r1:      make([]uint64, k),
		closing: make([]uint64, k),
		level2:  make([]level2State, k),
	}
	for i := 0; i < k; i++ {
		copies.closing[i] = noWedge
	}
	// Each copy stores two edges, one candidate closing edge, and a few
	// scalars.
	meter.Charge(int64(k) * (3*stream.WordsPerEdge + 4*stream.WordsPerScalar))

	// Level-1 acceptances are scheduled on a min-heap of (position, copy)
	// pairs packed into one word, so the per-copy inner loop never has to
	// test its own next acceptance: a copy whose r1 was just replaced by the
	// current edge is skipped naturally (closing was reset to a marker and
	// the adjacency test excludes e == r1). Acceptances past acceptHorizon
	// are dropped from the heap entirely — see the constant's comment.
	heap := newAcceptanceHeap(k)

	var pos int64
	m, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
		for _, e := range batch {
			e = e.Normalize()
			if e.U < 0 {
				return fmt.Errorf("baseline: neighbor sampling: negative vertex id in %v", e)
			}
			eu, ev := uint32(e.U), uint32(e.V)
			pe := uint64(eu)<<32 | uint64(ev)
			pos++
			// Level-1 reservoir over all edges: pop every copy whose
			// precomputed acceptance ("accept with probability 1/pos") is
			// due at this position.
			for heap.duePos() == pos {
				i := heap.popCopy()
				copies.r1[i] = pe
				copies.level2[i] = level2State{c: 0, next: 1}
				copies.closing[i] = noWedge
				heap.push(reservoirSkip(pos, rng), i)
			}
			// Per-copy hot loop: the common path is one packed load of r1
			// and four compares. The closure check lives on the adjacency
			// path only — a wedge's closing edge always shares the wedge's
			// non-apex endpoint with r1, so a non-adjacent edge can never
			// close it. Markers cannot equal a packed edge, so one compare
			// covers "has an open wedge and e closes it", and it must come
			// before a potential r2 replacement (the closing edge has to
			// arrive after r2).
			r1 := copies.r1
			for i := range r1 {
				p := r1[i]
				a, b := uint32(p>>32), uint32(p)
				if eu != a && eu != b && ev != a && ev != b {
					continue
				}
				if p == pe {
					// e == r1 cannot recur in the unrepeated-edge model,
					// but stay faithful to the scalar state machine.
					continue
				}
				if copies.closing[i] == pe {
					copies.closing[i] = wedgeClosed
				}
				// Level-2 reservoir over edges adjacent to r1 arriving
				// after r1.
				l2 := &copies.level2[i]
				l2.c++
				if l2.c == l2.next {
					l2.next = reservoirSkip(l2.c, rng)
					copies.closing[i] = packWedgeClosing(a, b, eu, ev)
				}
			}
		}
		return nil
	})
	if err != nil {
		return core.Result{}, err
	}

	values := make([]float64, k)
	found := 0
	for i := 0; i < k; i++ {
		if copies.closing[i] == wedgeClosed {
			values[i] = float64(m) * float64(copies.level2[i].c)
			found++
		}
	}
	estimate := sampling.MedianOfMeans(values, cfg.Groups)
	return core.Result{
		Estimate:       estimate,
		Passes:         counter.Passes(),
		SpaceWords:     meter.Peak(),
		EdgesInStream:  m,
		Instances:      cfg.Estimators,
		TrianglesFound: found,
	}, nil
}

// packWedgeClosing returns the packed edge joining the non-shared endpoints
// of the wedge formed by r1 = {a, b} and the adjacent edge {eu, ev}. When the
// two edges are parallel (impossible for distinct simple edges) the result is
// a degenerate self-loop key that never matches a stream edge, matching the
// defensive behaviour of the scalar implementation.
func packWedgeClosing(a, b, eu, ev uint32) uint64 {
	var o1, o2 uint32
	if a == eu {
		o1, o2 = b, ev
	} else if a == ev {
		o1, o2 = b, eu
	} else if b == eu {
		o1, o2 = a, ev
	} else {
		o1, o2 = a, eu
	}
	if o1 > o2 {
		o1, o2 = o2, o1
	}
	return uint64(o1)<<32 | uint64(o2)
}
