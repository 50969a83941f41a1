// Package passes is the shared multi-pass streaming-estimator framework: the
// concrete sharded stream passes that every estimator in this repository is
// built from. It sits on top of the scan scheduler (internal/sched), whose
// scans run the sharded pass engine, and of the keyed RNG streams
// (sampling.MixSeed), and owns the pass bodies that used to be duplicated
// between internal/core and internal/clique — degree counting, uniform edge
// sampling, keyed neighbor-reservoir sampling, and closure checking.
//
// # The (seed, passKey, mergeKey) contract
//
// A sharded pass splits one stream pass into a fixed grid of contiguous
// shards that may be processed by concurrent workers and merged in ascending
// shard order. Any randomness consumed inside such a pass must be a pure
// function of the data and of stable indices — never of worker scheduling —
// so every randomized pass in this package draws from RNG streams derived
// with sampling.MixSeed from three caller-supplied values:
//
//   - seed: the estimator's root seed (Config.Seed);
//   - passKey: a constant identifying the pass, unique within the estimator,
//     keying the per-(instance, shard) draws as
//     MixSeed(seed, passKey, instance, shard);
//   - mergeKey: a second constant (distinct from every passKey) keying the
//     per-instance shard-merge draws as MixSeed(seed, mergeKey, instance).
//
// Two passes of one estimator run may share a seed but must never share a
// passKey or mergeKey; subject to that, the realized draws — and with them
// the estimate — are bit-identical at any worker count, including the
// sequential workers <= 1 fallback. Deterministic passes (degree counting,
// closure checks) take no keys at all, and the uniform edge-sampling pass
// consumes the estimator's root RNG sequentially before the pass starts, so
// it needs the RNG rather than keys.
//
// # Executors: logical passes vs. physical scans
//
// Every pass body in this package is expressed against the Executor
// interface rather than against a concrete stream: the estimator declares
// *what* the pass needs (a process/merge pair under the engine contract) and
// the executor decides *how* the stream is read. The one implementation is a
// client of the scan scheduler (internal/sched), which shares one physical
// scan among every logical pass pending at the same time; NewDirect is a
// client with no fusion partner, so each of its passes is its own scan.
// Because all randomness inside a pass is keyed by (seed, passKey, instance,
// shard) and never by scan identity, a pass body produces bit-identical
// results no matter which physical scan carried it. An executor also owns a
// node of its scheduler's space-meter tree (Meter), and the one run it
// carries charges its words there, so the caller never hands meters down.
//
// Adding a new estimator workload should mean writing pass bodies against
// this package — picking fresh pass/merge keys — not re-implementing the
// shard/merge/RNG-keying discipline.
package passes

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"degentri/internal/graph"
	"degentri/internal/sampling"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// Executor runs logical sharded passes over one fixed stream of M() edges.
// RunPass executes one logical pass under the sharded engine contract:
// process(shard, batch) for every batch (batches never straddle shard
// boundaries; different shards may be processed concurrently by the
// executor's shard workers), then merge(shard) exactly once per shard in
// ascending shard order from a single goroutine. Passes() reports how many
// logical passes this executor has run — the paper's pass metric — which an
// implementation may serve with fewer physical scans.
//
// Context returns the executor's lifetime context: RunPass aborts within one
// batch boundary once it is cancelled, returning the context's error wrapped
// with the scan position, and estimators check it between passes so a
// cancelled request never starts another scan. Retries reports how many
// transient-I/O recoveries the executor's scans have performed so far — a
// healed scan is bit-identical to an undisturbed one (see stream.RetryPolicy),
// so retries change resource accounting, never results.
//
// Vertices reports n, one more than the largest vertex ID of the stream, as
// the stream reported it beside its length (stream.VertexCounter); ok is
// false for a stream that reports none.
//
// Meter is the executor's node of its scheduler's space-meter tree. An
// executor carries one run: the run charges its retained words to Meter
// directly, reports Meter's peak as its space and checks its budget against
// Meter's current words, so the node must hold no other run's words. Fused
// runs each run on their own child client (sched.Client.Fork), whose nodes
// mirror into their parent's, so an ancestor reports the peak of the words
// its runs retain concurrently.
type Executor interface {
	M() int
	Vertices() (n int, ok bool)
	RunPass(process func(shard int, batch []graph.Edge) error, merge func(shard int) error) error
	Passes() int
	Context() context.Context
	Retries() int
	Meter() *stream.SharedMeter
}

// NewDirect returns an executor over a stream of exactly m edges on which
// every logical pass is its own physical scan: the one client of a scan
// scheduler that has no other client. workers <= 0 selects GOMAXPROCS. The
// executor is uncancellable and does not retry; NewDirectCtx is the
// fault-tolerant constructor.
func NewDirect(s stream.Stream, m, workers int) *sched.Client {
	return NewDirectCtx(context.Background(), s, m, workers, stream.RetryPolicy{})
}

// NewDirectCtx is NewDirect with scans that abort when ctx is cancelled and
// heal transient I/O errors under the given retry policy.
func NewDirectCtx(ctx context.Context, s stream.Stream, m, workers int, retry stream.RetryPolicy) *sched.Client {
	return sched.NewCtx(ctx, s, m, workers, retry).NewClient()
}

// runPooled executes one sharded pass whose per-shard scratch state is pooled:
// a shard's state is allocated (or recycled) on its first batch, every batch
// of the shard is handed to process, and merge is invoked exactly once per
// non-empty shard, in ascending shard order, before the state returns to the
// pool. The engine bounds live states at workers+2, so the pool stays small.
func runPooled[T any](
	x Executor,
	alloc func() T, reset func(T),
	process func(st T, shard int, batch []graph.Edge),
	merge func(st T, shard int),
) error {
	pool := stream.NewShardPool(alloc, reset)
	var shards [stream.NumShards]T
	var live [stream.NumShards]bool
	return x.RunPass(
		func(shard int, batch []graph.Edge) error {
			if !live[shard] {
				shards[shard] = pool.Get()
				live[shard] = true
			}
			process(shards[shard], shard, batch)
			return nil
		},
		func(shard int) error {
			if live[shard] {
				merge(shards[shard], shard)
				pool.Put(shards[shard])
				var zero T
				shards[shard] = zero
				live[shard] = false
			}
			return nil
		})
}

// CountDegrees runs one sharded pass that increments deg for both endpoints
// of every edge, using pooled Forks of the counter merged in shard order. The
// pass is deterministic (no randomness) and only touches vertices that are
// keys of deg. Self-loops are skipped and duplicate edges counted, the rule
// CountDegreesMasked follows, so both passes give every vertex one degree.
func CountDegrees(x Executor, deg *graph.SortedCounter) error {
	return runPooled(x,
		deg.Fork, (*graph.SortedCounter).ResetCounts,
		func(c *graph.SortedCounter, _ int, batch []graph.Edge) {
			for _, e := range batch {
				u, v := int(e.U), int(e.V)
				if c.MayContain(u) && u != v {
					c.Inc(u)
				}
				if c.MayContain(v) && u != v {
					c.Inc(v)
				}
			}
		},
		func(c *graph.SortedCounter, _ int) { deg.Merge(c) })
}

// CountDegreesMasked runs one sharded pass counting, into the dense array deg,
// the degrees of the subgraph induced by the alive vertices: an edge
// contributes to both endpoints exactly when both are alive bits of the mask.
// Self-loops and edges with a negative endpoint are skipped. The mask covers
// every vertex of the stream, [0, alive.Len()), so an edge with an endpoint
// at or above alive.Len() fails the pass with an error naming it and
// wrapping stream.ErrCorruptHeader: the stream reported a vertex count
// below its IDs. It returns the number of stream edges that contributed (the
// induced edge count, duplicates tallied faithfully).
//
// With rank nil, deg is indexed by vertex ID and holds alive.Len() slots.
// Otherwise rank is alive's rank base (graph.Bitset.RankBase) and deg is
// indexed by each vertex's rank among the alive ones, so it needs only
// alive.Count() slots.
//
// Unlike CountDegrees this pass writes a shared dense array with atomic adds
// instead of pooled forks: integer addition is commutative and associative, so
// the result is bit-identical at any worker count without per-shard O(n)
// scratch — the whole point of the pass is staying at O(n) words total.
func CountDegreesMasked(x Executor, alive *graph.Bitset, rank, deg []int32) (int64, error) {
	n := uint(alive.Len())
	var induced atomic.Int64
	err := x.RunPass(
		func(_ int, batch []graph.Edge) error {
			local := int64(0)
			for _, e := range batch {
				if uint(e.U) >= n || uint(e.V) >= n {
					if e.U < 0 || e.V < 0 {
						continue
					}
					return fmt.Errorf("passes: edge %v has a vertex ID at or above the stream's vertex count %d: %w", e, n, stream.ErrCorruptHeader)
				}
				if e.U == e.V {
					continue
				}
				u, v := int(e.U), int(e.V)
				if !alive.Test(u) || !alive.Test(v) {
					continue
				}
				if rank != nil {
					u, v = alive.Rank(rank, u), alive.Rank(rank, v)
				}
				atomic.AddInt32(&deg[u], 1)
				atomic.AddInt32(&deg[v], 1)
				local++
			}
			induced.Add(local)
			return nil
		},
		func(int) error { return nil })
	if err != nil {
		return 0, err
	}
	return induced.Load(), nil
}

// positionShard is the per-shard cursor of the uniform edge-sampling pass:
// the next stream position of the shard and the next index into the sorted
// position array.
type positionShard struct {
	pos  int
	next int
	init bool
}

// SampleUniformEdges draws r edges uniformly at random with replacement from
// a stream of m edges in one sharded pass: it pre-draws r uniform positions
// in [0, m) from rng (consumed sequentially, before the pass starts), sorts
// them, and each shard collects the positions that fall in its range.
// Because sorted positions give every shard a disjoint index range of the
// sample array, the per-shard cursors need no merge state and the merge is
// trivially deterministic. A batch is indexed at its sampled positions, so
// it costs O(samples in the batch), not O(batch). Sampled edges are
// normalized.
func SampleUniformEdges(x Executor, rng *sampling.RNG, r int) ([]graph.Edge, error) {
	m := x.M()
	positions := make([]int, r)
	for i := range positions {
		positions[i] = rng.Intn(m)
	}
	sampling.SortPositions(positions)
	sample := make([]graph.Edge, r)

	var shards [stream.NumShards]positionShard
	err := x.RunPass(
		func(shard int, batch []graph.Edge) error {
			st := &shards[shard]
			if !st.init {
				st.pos, _ = stream.ShardRange(m, shard)
				st.next = sort.SearchInts(positions, st.pos)
				st.init = true
			}
			pos, next := st.pos, st.next
			end := pos + len(batch)
			for next < r && positions[next] < end {
				sample[next] = batch[positions[next]-pos].Normalize()
				next++
			}
			st.pos, st.next = end, next
			return nil
		},
		func(int) error { return nil })
	if err != nil {
		return nil, err
	}
	return sample, nil
}

// neighborShard is the per-shard state of a single-sample neighbor pass: one
// lazy skip-ahead reservoir per instance, plus the touched list for sparse
// reset and merge.
type neighborShard struct {
	res     []sampling.Res1
	touched []int32
}

// SampleNeighbors runs one sharded pass drawing, for every instance grouped
// in groups, one uniform neighbor of its group vertex. The reservoir of
// instance i in shard k draws from the RNG stream (seed, passKey, i, k) and
// the per-instance shard merge from (seed, mergeKey, i), which makes the
// returned samples independent of the worker count. Self-loops offer
// nothing: a vertex is never its own neighbor. It returns one merger per
// instance (Has() == false when the vertex had no neighbors).
func SampleNeighbors(
	x Executor,
	groups *graph.VertexGroups, n int,
	seed, passKey, mergeKey uint64,
) ([]sampling.Res1Merger, error) {
	merged := make([]sampling.Res1Merger, n)
	for i := range merged {
		merged[i].Init(sampling.MixSeed(seed, mergeKey, uint64(i)))
	}
	err := runPooled(x,
		func() *neighborShard { return &neighborShard{res: make([]sampling.Res1, n)} },
		func(st *neighborShard) {
			for _, i := range st.touched {
				st.res[i] = sampling.Res1{}
			}
			st.touched = st.touched[:0]
		},
		func(st *neighborShard, shard int, batch []graph.Edge) {
			offer := func(idx int32, v int) {
				r := &st.res[idx]
				if !r.Ready() {
					r.Init(sampling.MixSeed(seed, passKey, uint64(idx), uint64(shard)))
					st.touched = append(st.touched, idx)
				}
				r.Offer(v)
			}
			for _, e := range batch {
				u, v := int(e.U), int(e.V)
				if groups.MayContain(u) && u != v {
					for _, idx := range groups.Lookup(u) {
						offer(idx, v)
					}
				}
				if groups.MayContain(v) && u != v {
					for _, idx := range groups.Lookup(v) {
						offer(idx, u)
					}
				}
			}
		},
		func(st *neighborShard, _ int) {
			for _, i := range st.touched {
				merged[i].Absorb(&st.res[i])
			}
		})
	return merged, err
}

// bankShard is the per-shard state of a bank-sampling neighbor pass: one lazy
// bank per instance, each keeping a uniform k-subset of its shard's offers.
type bankShard struct {
	res     []sampling.ResK
	touched []int32
}

// SampleNeighborBanks runs one sharded pass drawing, for every instance
// grouped in groups, k uniform neighbor samples with replacement from its
// group vertex's neighborhood. Randomness is keyed exactly like
// SampleNeighbors — (seed, passKey, instance, shard) for the in-shard draws
// and (seed, mergeKey, instance) for the shard merges — with a bank in place
// of the single reservoir, and self-loops offer nothing there too. The shard
// merges leave each instance a uniform k-subset of its offers, and the k
// samples are drawn from it once the pass ends, so an instance whose vertex
// has degree d costs O(d + k) time. Each merger hands the samples back as
// their multiset: W, the distinct neighbors drawn in first-draw order, and C,
// their multiplicities, summing to k.
func SampleNeighborBanks(
	x Executor,
	groups *graph.VertexGroups, n, k int,
	seed, passKey, mergeKey uint64,
) ([]sampling.ResKMerger, error) {
	merged := make([]sampling.ResKMerger, n)
	for i := range merged {
		merged[i].Init(sampling.MixSeed(seed, mergeKey, uint64(i)), k)
	}
	err := runPooled(x,
		func() *bankShard { return &bankShard{res: make([]sampling.ResK, n)} },
		func(st *bankShard) {
			for _, i := range st.touched {
				st.res[i].Drop()
			}
			st.touched = st.touched[:0]
		},
		func(st *bankShard, shard int, batch []graph.Edge) {
			offer := func(idx int32, v int) {
				b := &st.res[idx]
				if !b.Ready() {
					b.Init(sampling.MixSeed(seed, passKey, uint64(idx), uint64(shard)), k)
					st.touched = append(st.touched, idx)
				}
				b.Offer(v)
			}
			for _, e := range batch {
				u, v := int(e.U), int(e.V)
				if groups.MayContain(u) && u != v {
					for _, idx := range groups.Lookup(u) {
						offer(idx, v)
					}
				}
				if groups.MayContain(v) && u != v {
					for _, idx := range groups.Lookup(v) {
						offer(idx, u)
					}
				}
			}
		},
		func(st *bankShard, _ int) {
			for _, i := range st.touched {
				merged[i].Absorb(&st.res[i])
			}
		})
	if err != nil {
		return nil, err
	}
	var counts []int
	for i := range merged {
		counts = merged[i].Finish(counts)
	}
	return merged, nil
}

// closureShard is the per-shard state of a closure-check pass: a hit bitset
// over the closure items plus (optionally) a degree-counter fork.
type closureShard struct {
	bits *graph.Bitset
	deg  *graph.SortedCounter
}

// ClosureBits runs one sharded pass marking, for every closure item whose
// edge key appears in the stream, a bit in the returned bitset. When extraDeg
// is non-nil the same pass also counts, into extraDeg, the degrees of its key
// vertices under CountDegrees' rule (the estimators use this to measure apex
// degrees without an extra pass). Hit bits are set in per-shard bitsets
// OR-merged in shard order — no shared writes, no randomness.
func ClosureBits(
	x Executor,
	closure *graph.EdgeIndex, items int,
	extraDeg *graph.SortedCounter,
) (*graph.Bitset, error) {
	merged := graph.NewBitset(items)
	err := runPooled(x,
		func() *closureShard {
			st := &closureShard{bits: graph.NewBitset(items)}
			if extraDeg != nil {
				st.deg = extraDeg.Fork()
			}
			return st
		},
		func(st *closureShard) {
			st.bits.Clear()
			if st.deg != nil {
				st.deg.ResetCounts()
			}
		},
		func(st *closureShard, _ int, batch []graph.Edge) {
			for _, e := range batch {
				if closure.MayContain(e) {
					for _, it := range closure.Lookup(e.Normalize()) {
						st.bits.Set(int(it))
					}
				}
				if st.deg != nil {
					u, v := int(e.U), int(e.V)
					if st.deg.MayContain(u) && u != v {
						st.deg.Inc(u)
					}
					if st.deg.MayContain(v) && u != v {
						st.deg.Inc(v)
					}
				}
			}
		},
		func(st *closureShard, _ int) {
			merged.Or(st.bits)
			if st.deg != nil {
				extraDeg.Merge(st.deg)
			}
		})
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// ClosureCounts runs one sharded pass counting, for every closure item, how
// many stream edges match its key (per-shard int32 tallies summed in shard
// order). For simple streams each count is 0 or 1, but duplicates in the
// stream are tallied faithfully.
func ClosureCounts(
	x Executor,
	closure *graph.EdgeIndex, items int,
) ([]int, error) {
	merged := make([]int, items)
	err := runPooled(x,
		func() []int32 { return make([]int32, items) },
		func(c []int32) { clear(c) },
		func(c []int32, _ int, batch []graph.Edge) {
			for _, e := range batch {
				if closure.MayContain(e) {
					for _, it := range closure.Lookup(e.Normalize()) {
						c[it]++
					}
				}
			}
		},
		func(c []int32, _ int) {
			for it, n := range c {
				if n != 0 {
					merged[it] += int(n)
				}
			}
		})
	if err != nil {
		return nil, err
	}
	return merged, nil
}
