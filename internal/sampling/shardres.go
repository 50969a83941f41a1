package sampling

import "math"

// This file provides the reservoir primitives of the sharded pass engine.
// A sharded pass splits one stream pass into contiguous shards that are
// processed concurrently, so the usual "one RNG consumed in stream order"
// discipline breaks: the randomness a shard consumes must not depend on how
// the other shards are scheduled. The engine therefore uses
//
//   - MixSeed to derive an independent RNG stream per (pass, instance, shard)
//     key, so the draws inside a shard are a pure function of the seed and the
//     shard's data;
//   - Res1, a skip-ahead size-1 reservoir, and ResK, a bank keeping a uniform
//     k-subset of its shard's offers, as the per-shard accumulators, each
//     carrying its own keyed RNG;
//   - Res1Merger/ResKMerger, which combine per-shard reservoirs in ascending
//     shard order with draws from a keyed merge RNG. Res1Merger keeps a
//     shard's sample of weight n over an accumulated weight N with
//     probability n/(N+n); ResKMerger splits a uniform k-subset of the union
//     between its two sides with one hypergeometric draw, and its Finish
//     draws k samples with replacement from the merged subset, handing them
//     back as the distinct offers drawn and their multiplicities.
//
// Because every draw is keyed by stable indices and merges happen in shard
// order, the merged samples are identical for any worker count — the
// determinism contract of the estimators.

// mix64 is the SplitMix64 finalizer, used to scatter seed material.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MixSeed derives the seed of an auxiliary RNG stream from a base seed and a
// sequence of stream keys (pass id, instance index, shard index, ...). The
// same (seed, keys) always yields the same stream; distinct key tuples yield
// independent-looking streams.
func MixSeed(seed uint64, keys ...uint64) uint64 {
	h := mix64(seed + 0x9e3779b97f4a7c15)
	for _, k := range keys {
		h = mix64(h ^ mix64(k+0x9e3779b97f4a7c15))
	}
	return h
}

// Res1 is a size-1 uniform reservoir with skip-ahead acceptance and its own
// RNG stream: instead of one draw per offer, it draws the index of the next
// accepted item directly (given n items seen, the next acceptance T satisfies
// P(T > t) = n/t, i.e. T = ⌊n/u⌋+1 for uniform u), costing O(log n) draws over
// a stream of n offers. The first offer is accepted without consuming any
// randomness and the first skip is drawn lazily at the second offer, so the
// ubiquitous "shard saw exactly one neighbor" case costs zero draws. The zero
// value is unusable; call Init first.
type Res1 struct {
	N     int64 // items offered so far
	W     int   // current sample, valid when N > 0
	next  int64 // 1-based index of the next accepted offer; 0 = not yet drawn
	rng   RNG
	ready bool
}

// Init readies the reservoir with its keyed RNG stream.
func (r *Res1) Init(seed uint64) {
	*r = Res1{rng: RNG{state: seed}, ready: true}
}

// Ready reports whether Init has been called since the last zeroing.
func (r *Res1) Ready() bool { return r.ready }

// Offer presents the next item of the shard's sub-stream.
func (r *Res1) Offer(v int) {
	r.N++
	if r.N == 1 {
		r.W = v // first item: accepted with certainty, no draw
		return
	}
	if r.next == 0 {
		r.next = skipAhead(1, &r.rng)
	}
	if r.N < r.next {
		return
	}
	r.W = v
	r.next = skipAhead(r.N, &r.rng)
}

// skipAhead draws the index of the next accepted offer after an acceptance at
// index n: T = ⌊n/u⌋+1, so that P(T > t) = n/t.
func skipAhead(n int64, rng *RNG) int64 {
	t := float64(n)/rng.Float64Open() + 1
	if t >= math.MaxInt64/2 {
		return math.MaxInt64
	}
	return int64(t)
}

// Res1Merger accumulates per-shard Res1 reservoirs, absorbed in ascending
// shard order, into one uniform sample over all offers.
type Res1Merger struct {
	N   int64 // total items offered across absorbed shards
	W   int   // merged sample, valid when N > 0
	rng RNG
}

// Init readies the merger with its keyed RNG stream and an invalid sample.
func (m *Res1Merger) Init(seed uint64) {
	*m = Res1Merger{W: -1, rng: RNG{state: seed}}
}

// Absorb merges a shard reservoir into the accumulator: the shard's sample
// replaces the kept one with probability r.N/(m.N+r.N). An empty reservoir is
// a no-op, and the first non-empty one is adopted outright; neither consumes
// randomness (both rules depend only on the data, never on worker count).
func (m *Res1Merger) Absorb(r *Res1) {
	if r.N == 0 {
		return
	}
	if m.N == 0 {
		m.N = r.N
		m.W = r.W
		return
	}
	m.N += r.N
	if m.rng.Int63n(m.N) < r.N {
		m.W = r.W
	}
}

// Has reports whether any item has been absorbed.
func (m *Res1Merger) Has() bool { return m.N > 0 }

// ResK is the per-shard half of a k-sample bank: it keeps a uniform k-subset,
// without replacement, of its shard's sub-stream, which ResKMerger combines
// across shards and turns into the multiset of k samples with replacement.
// The first k offers are kept verbatim, with no draws. Past k, Algorithm L
// (Li, "Reservoir-Sampling Algorithms of Time Complexity O(n(1+log(N/n)))",
// ACM TOMS 1994) draws the index of the next accepted offer directly, so an
// offer costs an append or one comparison, and N offers cost O(k·log(N/k))
// draws. The zero value is unusable; call Init first.
type ResK struct {
	N    int64
	kept []int   // the first min(N, k) offers, then a uniform k-subset
	next int64   // 1-based index of the next accepted offer; 0 = not yet drawn
	w    float64 // Algorithm L's largest key among the kept offers
	k    int
	rng  RNG
}

// Init readies the bank for k samples, reusing the buffer's capacity.
func (r *ResK) Init(seed uint64, k int) {
	*r = ResK{kept: r.kept[:0], k: k, rng: RNG{state: seed}}
}

// Ready reports whether Init has been called since the last Drop.
func (r *ResK) Ready() bool { return r.k != 0 }

// Drop returns the bank to the un-Init state while keeping the buffer's
// capacity, so pooled banks can be reused without reallocating.
func (r *ResK) Drop() { *r = ResK{kept: r.kept[:0]} }

// Offer presents the next item of the shard's sub-stream.
func (r *ResK) Offer(v int) {
	r.N++
	if len(r.kept) < r.k {
		r.kept = append(r.kept, v)
		return
	}
	if r.next == 0 {
		r.w = 1
		r.advance(r.N - 1)
	}
	if r.N < r.next {
		return
	}
	r.kept[r.rng.Intn(r.k)] = v
	r.advance(r.N)
}

// advance draws the index of the next accepted offer after offer i: the kept
// offers' largest key w shrinks by the k-th root of a uniform, and the number
// of offers until one draws a key below w is geometric with parameter w.
func (r *ResK) advance(i int64) {
	r.w *= math.Exp(math.Log(r.rng.Float64Open()) / float64(r.k))
	gap := math.Floor(math.Log(r.rng.Float64Open())/math.Log1p(-r.w)) + 1
	if gap >= math.MaxInt64/2 {
		r.next = math.MaxInt64
		return
	}
	r.next = i + int64(gap)
}

// ResKMerger accumulates per-shard ResK banks, absorbed in ascending shard
// order, into a uniform min(N, k)-subset of all N offers; Finish then draws
// the k samples with replacement and keeps only their multiset: W, the
// distinct offers drawn, in first-draw order, and C, how often each was drawn.
type ResKMerger struct {
	N    int64
	W    []int // the distinct offers among the k samples, set by Finish when N > 0
	C    []int // C[i] is how many of the k samples drew W[i]; the counts sum to k
	kept []int // a uniform min(N, k)-subset of the offers absorbed so far
	k    int
	rng  RNG
}

// Init readies the merger for k samples.
func (m *ResKMerger) Init(seed uint64, k int) {
	*m = ResKMerger{k: k, rng: RNG{state: seed}}
}

// Absorb merges a shard bank into the accumulator. While the union holds at
// most k offers, both sides are verbatim and are concatenated with no draws.
// Past that, a hypergeometric draw splits a uniform k-subset of the union
// between the two sides, and uniform sub-subsets of each side's kept offers
// fill the two counts. A uniform subset of a uniform subset is uniform, so the
// result is a uniform k-subset of every offer absorbed. An empty bank is a
// no-op. Every rule depends only on the data, never on the worker count.
func (m *ResKMerger) Absorb(r *ResK) {
	if r.N == 0 {
		return
	}
	total := m.N + r.N
	if total <= int64(m.k) {
		m.kept = append(m.kept, r.kept...)
		m.N = total
		return
	}
	fromShard := int(hypergeometric(&m.rng, total, r.N, int64(m.k)))
	m.kept = append(subset(&m.rng, m.kept, m.k-fromShard), subset(&m.rng, r.kept, fromShard)...)
	m.N = total
}

// Finish draws k uniform samples with replacement from all N offers and sets
// W and C to their multiset. Each draw takes u uniform in [0, N). The d
// distinct offers drawn so far sit at the front of the kept subset, and
// u < d, probability d/N, repeats offer u. Otherwise the draw is a fresh
// offer, uniform over the N−d undrawn ones; a uniform pick among the subset's
// unused offers is exactly that, because the subset is a uniform subset of
// all N offers. The counts accumulate in counts, scratch space of any length
// that Finish returns for the next merger's call. W and C are then copied out
// at their exact size d, in one allocation, and the subset is released.
func (m *ResKMerger) Finish(counts []int) []int {
	if m.N == 0 {
		return counts
	}
	s, d := m.kept, int64(0)
	counts = counts[:0]
	for range m.k {
		u := m.rng.Int63n(m.N)
		if u < d {
			counts[u]++
			continue
		}
		if m.N > int64(len(s)) {
			u = d + m.rng.Int63n(int64(len(s))-d)
		}
		s[d], s[u] = s[u], s[d]
		d++
		counts = append(counts, 1)
	}
	wc := make([]int, 2*d)
	m.W, m.C = wc[:d:d], wc[d:]
	copy(m.W, s)
	copy(m.C, counts)
	m.kept = nil
	return counts
}

// Has reports whether any item has been absorbed.
func (m *ResKMerger) Has() bool { return m.N > 0 }

// hypergeometric returns how many of n items' good ones a uniform
// draws-subset holds. It selects the subset sequentially, item i joining with
// probability (still wanted)/(n−i), over the smallest of the good, bad and
// drawn sets (the distribution is symmetric in good and draws), so it makes
// at most min(good, n−good, draws) draws.
func hypergeometric(rng *RNG, n, good, draws int64) int64 {
	if n-good < good {
		return draws - hypergeometric(rng, n, n-good, draws)
	}
	if draws < good {
		good, draws = draws, good
	}
	hits := int64(0)
	for i := int64(0); i < good && hits < draws; i++ {
		if rng.Int63n(n-i) < draws-hits {
			hits++
		}
	}
	return hits
}

// subset reorders s so that its first size items are a uniform size-subset of
// s and returns them: a partial Fisher–Yates shuffle that picks the kept items
// or evicts the dropped ones, whichever are fewer.
func subset(rng *RNG, s []int, size int) []int {
	if size <= len(s)-size {
		for i := 0; i < size; i++ {
			j := i + rng.Intn(len(s)-i)
			s[i], s[j] = s[j], s[i]
		}
	} else {
		for i := len(s) - 1; i >= size; i-- {
			j := rng.Intn(i + 1)
			s[i], s[j] = s[j], s[i]
		}
	}
	return s[:size]
}
