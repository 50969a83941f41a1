package stream

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"degentri/internal/graph"
)

// This file is the sharded pass engine: one logical pass over a stream is
// partitioned into a fixed grid of NumShards contiguous position ranges that
// can be processed by a bounded worker pool, with per-shard results merged in
// ascending shard order. The grid is fixed — independent of the worker count
// and of GOMAXPROCS — so that any state whose randomness is keyed by shard
// index (see sampling.MixSeed) produces bit-identical results at any worker
// count, including the workers == 1 sequential fallback. The engine is what
// lets a *single* estimator run scale with cores while keeping the golden
// determinism contract.

// NumShards bounds the logical shard grid of a sharded pass. The grid for a
// concrete pass is ActiveShards(m) contiguous ranges — a pure function of the
// stream length, independent of the worker count and of GOMAXPROCS, which is
// what keys the per-shard RNG streams and so keeps estimates bit-identical at
// any parallelism. 64 shards keep every core busy on any realistic machine
// while bounding the merge chain at a constant.
const NumShards = 64

// shardTargetEdges is the minimum shard size worth its bookkeeping: per-shard
// reservoir state, merges, and pool traffic amortize over at least this many
// edges. Streams shorter than 2× this run as one shard (purely sequential).
const shardTargetEdges = 8192

// ActiveShards returns the number of non-empty shards in the grid for a pass
// of m edges: ⌈m/shardTargetEdges⌉ capped at NumShards. Shards with index >=
// ActiveShards(m) are empty.
func ActiveShards(m int) int {
	a := (m + shardTargetEdges - 1) / shardTargetEdges
	if a < 1 {
		a = 1
	}
	if a > NumShards {
		a = NumShards
	}
	return a
}

// ShardRange returns the position range [lo, hi) of the given shard for a
// pass of m edges. Shards beyond ActiveShards(m) are empty.
func ShardRange(m, shard int) (lo, hi int) {
	a := ActiveShards(m)
	if shard >= a {
		return m, m
	}
	return shard * m / a, (shard + 1) * m / a
}

// RangeStreamer is implemented by streams that can open independent
// sub-streams over contiguous position ranges of a pass. The sub-streams may
// be read concurrently with each other (each from its own goroutine).
type RangeStreamer interface {
	Stream
	// RangeStream returns a fresh stream over positions [lo, hi) of the pass,
	// or ok == false when range access is currently unavailable (for example
	// a text stream before the pass that writes its .bex v2 copy). A returned
	// stream must be Reset before use; if it implements io.Closer the caller
	// is responsible for closing it. A sub-stream may read through its
	// parent's open file (a .bex v2 range does), so it must be closed or
	// dropped before the parent's Close.
	RangeStream(lo, hi int) (Stream, bool)
}

// ShardedScan runs one logical pass over a stream of exactly m edges,
// partitioned into the NumShards grid. For every batch of edges it invokes
// process(shard, batch) with batches that never straddle a shard boundary;
// after all batches of shard k have been processed, merge(k) is invoked.
// merge is called exactly once per shard, in ascending shard order (including
// for empty shards), from a single goroutine.
//
// When workers > 1 and the stream supports range access, shards are processed
// concurrently on a pool of `workers` goroutines: all process calls of one
// shard happen sequentially on one worker, process calls of different shards
// may be concurrent, and every process call of shard k happens before
// merge(k). The number of shards whose state is live at once (processed or
// processing but not yet merged) is bounded by workers+2, so per-shard
// scratch can be pooled. With workers <= 1, without range support, or when
// m < NumShards, the pass degrades to a single sequential scan that makes the
// exact same process/merge calls in the same per-shard order — the results
// are identical by construction, only the interleaving changes.
//
// The pass counts as one pass on a PassCounter (one Reset), like ForEachBatch.
// It returns the number of edges seen and errors if that differs from m.
//
// The context is checked at every batch boundary: a cancelled or
// deadline-expired scan stops within one batch and returns the context's
// error wrapped with the stream position it reached. When retry is enabled,
// a read that fails with a transient error (IsTransient) is resumed at the
// exact position it broke — the failing reader is replaced by a fresh
// RangeStream over the undelivered remainder — after the policy's backoff;
// process and merge never observe a duplicated or missing edge, so a healed
// scan is bit-identical to an undisturbed one. Transient Reset failures are
// likewise retried (nothing has been delivered yet). retries reports how many
// such recoveries the scan performed.
//
// Mid-scan resume needs position addressability: on a stream without range
// access (a text file's first pass, or a text without a copy) a transient
// read error propagates to the caller, wrapped transient so a state-free
// caller may re-run the whole pass itself.
func ShardedScan(
	ctx context.Context,
	s Stream,
	m, workers int,
	retry RetryPolicy,
	process func(shard int, batch []graph.Edge) error,
	merge func(shard int) error,
) (count, retries int, err error) {
	if m < 0 {
		return 0, 0, fmt.Errorf("stream: sharded pass with negative m = %d", m)
	}
	if known, ok := s.Len(); ok && known != m {
		return 0, 0, fmt.Errorf("stream: sharded pass declared %d edges but the stream holds %d", m, known)
	}
	if workers > 1 && ActiveShards(m) > 1 {
		if rs, ok := s.(RangeStreamer); ok {
			if _, avail := rs.RangeStream(0, 0); avail {
				return shardedParallel(ctx, rs, m, workers, retry, process, merge)
			}
		}
	}
	return shardedSequential(ctx, s, m, retry, process, merge)
}

// resetWithRetry begins a pass, retrying transient Reset failures under the
// policy (a failed Reset has delivered nothing, so re-running it is free).
func resetWithRetry(ctx context.Context, s Stream, retry RetryPolicy) (retries int, err error) {
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return retries, posErr(ctx, 0, 0)
		}
		err = s.Reset()
		if err == nil || !retry.Enabled() || attempt >= retry.MaxAttempts || !IsTransient(err) {
			return retries, err
		}
		if serr := retry.sleep(ctx, attempt); serr != nil {
			return retries, posErr(ctx, 0, 0)
		}
		retries++
	}
}

// resumeAt replaces a reader whose read failed transiently with a fresh
// sub-stream over the undelivered remainder [pos, m) of src. It returns
// ok=false when src cannot address positions (no range access).
func resumeAt(src Stream, pos, m int) (Stream, bool) {
	rs, ok := src.(RangeStreamer)
	if !ok {
		return nil, false
	}
	sub, ok := rs.RangeStream(pos, m)
	if !ok {
		return nil, false
	}
	return sub, true
}

// shardedSequential is the single-scan path: one Reset, batches split at
// shard boundaries, merge(k) as soon as shard k's range has been consumed.
// Transient read failures resume on a range sub-stream over the remainder
// when the source supports it.
func shardedSequential(
	ctx context.Context,
	s Stream,
	m int,
	retry RetryPolicy,
	process func(shard int, batch []graph.Edge) error,
	merge func(shard int) error,
) (int, int, error) {
	retries, err := resetWithRetry(ctx, s, retry)
	if err != nil {
		return 0, retries, err
	}
	count := 0
	shard := 0
	_, hi := ShardRange(m, 0)
	cur := s // the reader currently delivering edges: s, or a resume range
	var curCloser io.Closer
	closeCur := func() {
		if curCloser != nil {
			curCloser.Close()
			curCloser = nil
		}
	}
	defer closeCur()
	failStreak := 0 // consecutive transient failures without progress
	for {
		if cerr := ctx.Err(); cerr != nil {
			return count, retries, posErr(ctx, count, m)
		}
		batch, err := cur.NextBatch(nil)
		if err == ErrEndOfPass {
			break
		}
		if err != nil {
			if retry.Enabled() && failStreak < retry.MaxAttempts && IsTransient(err) {
				if serr := retry.sleep(ctx, failStreak); serr != nil {
					return count, retries, posErr(ctx, count, m)
				}
				if sub, ok := resumeAt(s, count, m); ok {
					failStreak++
					rr, rerr := resetWithRetry(ctx, sub, retry)
					retries += rr + 1
					if rerr == nil {
						closeCur()
						cur = sub
						if c, isCloser := sub.(io.Closer); isCloser {
							curCloser = c
						}
						continue
					}
					err = rerr
				}
			}
			return count, retries, err
		}
		failStreak = 0
		for len(batch) > 0 {
			for count >= hi && shard < NumShards-1 {
				if err := merge(shard); err != nil {
					return count, retries, err
				}
				shard++
				_, hi = ShardRange(m, shard)
			}
			take := len(batch)
			if room := hi - count; take > room {
				take = room
			}
			if take == 0 {
				// Only possible in the last shard: the stream is longer than m.
				return count, retries, fmt.Errorf("stream: sharded pass saw more than the declared %d edges", m)
			}
			if err := process(shard, batch[:take]); err != nil {
				return count, retries, err
			}
			count += take
			batch = batch[take:]
		}
	}
	if count != m {
		return count, retries, fmt.Errorf("stream: sharded pass saw %d edges, expected %d: %w", count, m, ErrTruncated)
	}
	for ; shard < NumShards; shard++ {
		if err := merge(shard); err != nil {
			return count, retries, err
		}
	}
	return count, retries, nil
}

// shardedParallel fans the shard grid out over a bounded worker pool and
// merges completed shards in order on the calling goroutine.
func shardedParallel(
	ctx context.Context,
	rs RangeStreamer,
	m, workers int,
	retry RetryPolicy,
	process func(shard int, batch []graph.Edge) error,
	merge func(shard int) error,
) (int, int, error) {
	// One Reset so a PassCounter charges one logical pass; the actual reads
	// go through the per-shard range streams.
	resetRetries, err := resetWithRetry(ctx, rs, retry)
	if err != nil {
		return 0, resetRetries, err
	}
	var retryCount atomic.Int64
	retryCount.Store(int64(resetRetries))
	if a := ActiveShards(m); workers > a {
		workers = a
	}

	type shardDone struct {
		n   int
		err error
	}
	done := make([]chan shardDone, NumShards)
	for k := range done {
		done[k] = make(chan shardDone, 1)
	}
	// inFlight bounds the shards that hold live state at once: a worker must
	// acquire a token before touching a shard and the merger releases it only
	// after merging, so at most workers+2 per-shard scratch states exist.
	inFlight := make(chan struct{}, workers+2)
	var next atomic.Int64
	var cancelled atomic.Bool

	runShard := func(k int) (int, error) {
		lo, hi := ShardRange(m, k)
		if lo == hi {
			return 0, nil
		}
		// open positions the shard's reader at absolute position lo+n; a
		// transient failure mid-shard re-opens at the exact resume point.
		var sub Stream
		var subCloser io.Closer
		closeSub := func() {
			if subCloser != nil {
				subCloser.Close()
				subCloser = nil
			}
		}
		defer closeSub()
		open := func(from int) error {
			closeSub()
			s, ok := rs.RangeStream(from, hi)
			if !ok {
				return fmt.Errorf("stream: range access for shard %d withdrawn mid-pass", k)
			}
			sub = s
			if c, isCloser := s.(io.Closer); isCloser {
				subCloser = c
			}
			rr, err := resetWithRetry(ctx, s, retry)
			retryCount.Add(int64(rr))
			return err
		}
		if err := open(lo); err != nil {
			return 0, err
		}
		n := 0
		failStreak := 0
		for {
			if cerr := ctx.Err(); cerr != nil {
				return n, posErr(ctx, lo+n, m)
			}
			batch, err := sub.NextBatch(nil)
			if err == ErrEndOfPass {
				return n, nil
			}
			if err != nil {
				if retry.Enabled() && failStreak < retry.MaxAttempts && IsTransient(err) {
					if serr := retry.sleep(ctx, failStreak); serr != nil {
						return n, posErr(ctx, lo+n, m)
					}
					failStreak++
					retryCount.Add(1)
					if rerr := open(lo + n); rerr == nil {
						continue
					}
				}
				return n, err
			}
			failStreak = 0
			if err := process(k, batch); err != nil {
				return n, err
			}
			n += len(batch)
			if cancelled.Load() {
				return n, nil
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Acquire the token BEFORE claiming a shard index. This
				// ordering is what makes the protocol deadlock-free: every
				// claimed-but-unmerged shard holds a token, and claims are
				// issued in ascending order, so the shard the merger is
				// waiting on is always claimed (and hence completed) before
				// later shards can exhaust the tokens. Claiming first would
				// let a burst of instantly-completed later shards starve an
				// earlier claimer of tokens while the merger waits on it.
				inFlight <- struct{}{}
				k := int(next.Add(1)) - 1
				if k >= NumShards {
					<-inFlight // return the unused token
					return
				}
				if cancelled.Load() {
					done[k] <- shardDone{}
					continue
				}
				n, err := runShard(k)
				if err != nil {
					cancelled.Store(true)
				}
				done[k] <- shardDone{n: n, err: err}
			}
		}()
	}

	// Merge in shard order on this goroutine. On error, keep draining the
	// remaining shards (and releasing tokens) so no worker blocks forever.
	count := 0
	var firstErr error
	for k := 0; k < NumShards; k++ {
		d := <-done[k]
		if firstErr == nil {
			count += d.n
			switch {
			case d.err != nil:
				firstErr = d.err
			default:
				if err := merge(k); err != nil {
					firstErr = err
					cancelled.Store(true)
				}
			}
		}
		<-inFlight
	}
	wg.Wait()
	if firstErr != nil {
		return count, int(retryCount.Load()), firstErr
	}
	if count != m {
		return count, int(retryCount.Load()), fmt.Errorf("stream: sharded pass saw %d edges, expected %d: %w", count, m, ErrTruncated)
	}
	return count, int(retryCount.Load()), nil
}

// ShardPool is a tiny free list for the per-shard scratch state of a sharded
// pass. The engine bounds live shards at workers+2, so the pool never grows
// past that; pooling matters because a pass allocates one state per shard and
// 64 fresh instance-sized arrays per pass is measurable garbage.
type ShardPool[T any] struct {
	mu    sync.Mutex
	free  []T
	alloc func() T
	reset func(T)
}

// NewShardPool builds a pool; alloc creates a state, reset readies a used one
// for reuse (reset may be nil when no cleanup is needed).
func NewShardPool[T any](alloc func() T, reset func(T)) *ShardPool[T] {
	return &ShardPool[T]{alloc: alloc, reset: reset}
}

// Get returns a fresh or recycled state.
func (p *ShardPool[T]) Get() T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	return p.alloc()
}

// Put recycles a state after resetting it.
func (p *ShardPool[T]) Put(v T) {
	if p.reset != nil {
		p.reset(v)
	}
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}
