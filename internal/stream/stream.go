// Package stream implements the arbitrary-order, multi-pass graph streaming
// model of the paper: the input graph is a list of unrepeated edges, an
// algorithm may make a constant number of sequential passes over the list,
// and its space is measured in retained machine words rather than in bytes
// of process memory.
//
// The package provides in-memory and file-backed edge streams, a pass
// counter, and a SpaceMeter that estimators use to account for every word
// they retain (sampled edges, per-vertex counters, memo-table entries).
package stream

import (
	"context"
	"errors"
	"io"

	"degentri/internal/graph"
)

// ErrEndOfPass is returned by Next when the current pass is exhausted. It is
// an alias for io.EOF so stream sources can simply propagate the sentinel.
var ErrEndOfPass = io.EOF

// ErrNoPass is returned by Next when Reset has never been called.
var ErrNoPass = errors.New("stream: Next called before Reset")

// DefaultBatchSize is the batch granularity used when a caller passes an
// empty scratch buffer to NextBatch and the implementation has to pick one
// (file-backed streams). In-memory streams hand out their whole remaining
// edge slice in that case.
const DefaultBatchSize = 4096

// Stream is a multi-pass edge stream. A pass begins with Reset and ends when
// Next (or NextBatch) returns ErrEndOfPass. The edge order within a pass is
// fixed for the lifetime of the stream (the "arbitrary order" model):
// repeated passes see the same sequence.
//
// Next and NextBatch advance the same cursor and may be mixed freely within
// a pass; NextBatch exists so that a full pass costs a handful of interface
// calls instead of one per edge.
type Stream interface {
	// Reset begins a new pass from the first edge.
	Reset() error
	// Next returns the next edge of the current pass, or ErrEndOfPass when
	// the pass is complete.
	Next() (graph.Edge, error)
	// NextBatch returns the next edges of the current pass. When buf is
	// non-empty the batch holds at most len(buf) edges and implementations
	// may use buf as scratch space; in-memory implementations instead return
	// a slice aliasing their internal storage (zero copies). When buf is
	// empty the implementation picks its own batch size (in-memory streams
	// return the entire remainder of the pass in one batch).
	//
	// The returned batch is only valid until the next call on the stream and
	// must not be modified. A non-empty batch is returned with a nil error;
	// the end of the pass is reported as (nil, ErrEndOfPass) on the next
	// call.
	NextBatch(buf []graph.Edge) ([]graph.Edge, error)
	// Len returns the number of edges m if known, or ok=false when the
	// stream length is only discovered by completing a pass.
	Len() (m int, ok bool)
}

// nextEdge is the Next of every stream in this package: it reads a one-edge
// batch through the stream's own NextBatch, so each reader has exactly one
// read loop.
func nextEdge(s Stream) (graph.Edge, error) {
	var one [1]graph.Edge
	batch, err := s.NextBatch(one[:])
	if err != nil {
		return graph.Edge{}, err
	}
	return batch[0], nil
}

// ForEach runs one full pass over the stream, invoking fn for every edge.
// It returns the number of edges seen. If fn returns a non-nil error the
// pass stops and the error is returned. Iteration is batched under the hood;
// per-edge hot paths that can work on whole slices should prefer
// ForEachBatch.
func ForEach(s Stream, fn func(graph.Edge) error) (int, error) {
	if err := s.Reset(); err != nil {
		return 0, err
	}
	count := 0
	for {
		batch, err := s.NextBatch(nil)
		if err == ErrEndOfPass {
			return count, nil
		}
		if err != nil {
			return count, err
		}
		for _, e := range batch {
			count++
			if err := fn(e); err != nil {
				return count, err
			}
		}
	}
}

// ForEachBatch runs one full pass over the stream, invoking fn for every
// batch of edges. It returns the number of edges seen. The slice passed to fn
// is only valid during the call and must not be modified or retained.
func ForEachBatch(s Stream, fn func([]graph.Edge) error) (int, error) {
	if err := s.Reset(); err != nil {
		return 0, err
	}
	count := 0
	for {
		batch, err := s.NextBatch(nil)
		if err == ErrEndOfPass {
			return count, nil
		}
		if err != nil {
			return count, err
		}
		count += len(batch)
		if err := fn(batch); err != nil {
			return count, err
		}
	}
}

// CountEdges makes one pass over the stream and returns the number of edges.
// It is how algorithms learn m when the source does not know its own length.
func CountEdges(s Stream) (int, error) {
	return ForEachBatch(s, func([]graph.Edge) error { return nil })
}

// ForEachBatchCtx is ForEachBatch with cancellation and whole-pass retry:
// the context is checked at every batch boundary (a cancelled pass stops
// within one batch, returning the context error wrapped with the position
// reached), and when retry is enabled a transient read failure re-runs the
// entire pass from Reset. Whole-pass retry is only sound for state-free
// callers — fn must tolerate seeing edges again from the start — which is
// exactly the shape of the opening count sched.Open makes; stateful passes go
// through ShardedScan, whose recovery resumes instead of re-running. retries
// reports the recoveries performed.
func ForEachBatchCtx(ctx context.Context, s Stream, retry RetryPolicy, fn func([]graph.Edge) error) (count, retries int, err error) {
	for attempt := 0; ; attempt++ {
		count, err = func() (int, error) {
			if err := s.Reset(); err != nil {
				return 0, err
			}
			n := 0
			for {
				if cerr := ctx.Err(); cerr != nil {
					return n, posErr(ctx, n, -1)
				}
				batch, err := s.NextBatch(nil)
				if err == ErrEndOfPass {
					return n, nil
				}
				if err != nil {
					return n, err
				}
				n += len(batch)
				if err := fn(batch); err != nil {
					return n, err
				}
			}
		}()
		if err == nil || !retry.Enabled() || attempt >= retry.MaxAttempts || !IsTransient(err) {
			return count, retries, err
		}
		if serr := retry.sleep(ctx, attempt); serr != nil {
			return count, retries, posErr(ctx, count, -1)
		}
		retries++
	}
}

// CountEdgesCtx is CountEdges with cancellation and whole-pass retry (the
// count is state-free, so re-running a failed pass is always sound).
func CountEdgesCtx(ctx context.Context, s Stream, retry RetryPolicy) (m, retries int, err error) {
	return ForEachBatchCtx(ctx, s, retry, func([]graph.Edge) error { return nil })
}

// CountEdgesAndMaxIDCtx makes one pass over the stream and returns both the
// number of edges and the largest vertex ID seen (-1 when no edge has a
// non-negative endpoint), with cancellation and whole-pass retry (max is
// idempotent under replay, so re-running is sound). Callers that need m
// *and* will immediately run a degeneracy peel use this to fuse the peel's
// vertex-ID discovery pass into the edge-counting scan they had to make
// anyway (degen.Options.KnownVertices).
func CountEdgesAndMaxIDCtx(ctx context.Context, s Stream, retry RetryPolicy) (m, maxID, retries int, err error) {
	maxID = -1
	m, retries, err = ForEachBatchCtx(ctx, s, retry, func(batch []graph.Edge) error {
		for _, e := range batch {
			if e.U > maxID {
				maxID = e.U
			}
			if e.V > maxID {
				maxID = e.V
			}
		}
		return nil
	})
	return m, maxID, retries, err
}

// Materialize makes one pass over the stream and builds the full graph. This
// is not a streaming operation (it uses Θ(m) space) and exists for ground
// truth computation, oracles, and tests.
func Materialize(s Stream) (*graph.Graph, error) {
	b := graph.NewBuilder(0)
	_, err := ForEach(s, func(e graph.Edge) error {
		b.AddEdge(e.U, e.V)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// Collect makes one pass and returns all edges in stream order. Like
// Materialize it is Θ(m) space and intended for tests and drivers.
func Collect(s Stream) ([]graph.Edge, error) {
	var edges []graph.Edge
	_, err := ForEachBatch(s, func(batch []graph.Edge) error {
		edges = append(edges, batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return edges, nil
}
