package stream

import (
	"io"
	"sync/atomic"

	"degentri/internal/graph"
	"degentri/internal/sampling"
)

// MemoryStream is an in-memory edge stream. The edge order is fixed at
// construction time; FromGraphShuffled applies a seeded uniform permutation
// to model the adversarial/arbitrary arrival order of the streaming model
// while remaining reproducible.
type MemoryStream struct {
	edges []graph.Edge
	n     int // 1 + the largest vertex ID; -1 on a range sub-stream, which does not count it
	pos   int
	begun bool
}

// FromEdges builds a stream that replays the given edges in the given order.
// The slice is not copied; callers must not mutate it afterwards. The
// stream's vertex count is found here, once.
func FromEdges(edges []graph.Edge) *MemoryStream {
	top := int32(-1)
	for _, e := range edges {
		top = max(top, e.U, e.V)
	}
	return &MemoryStream{edges: edges, n: int(top) + 1}
}

// FromGraph builds a stream over the graph's edges in canonical
// (lexicographic) order.
func FromGraph(g *graph.Graph) *MemoryStream {
	edges := make([]graph.Edge, g.NumEdges())
	copy(edges, g.Edges())
	return FromEdges(edges)
}

// FromGraphShuffled builds a stream over the graph's edges in a uniformly
// random order determined by the seed. Different seeds give different
// arbitrary orders; the same seed always gives the same order.
func FromGraphShuffled(g *graph.Graph, seed uint64) *MemoryStream {
	edges := make([]graph.Edge, g.NumEdges())
	copy(edges, g.Edges())
	rng := sampling.NewRNG(seed)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return FromEdges(edges)
}

// Reset implements Stream.
func (s *MemoryStream) Reset() error {
	s.pos = 0
	s.begun = true
	return nil
}

// Next implements Stream.
func (s *MemoryStream) Next() (graph.Edge, error) { return nextEdge(s) }

// NextBatch implements Stream. The returned batch aliases the stream's
// backing slice — no edges are copied — so it must not be modified. With an
// empty buf the entire remainder of the pass is returned in one batch;
// otherwise the batch is capped at len(buf) edges (buf itself is not used).
func (s *MemoryStream) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	if !s.begun {
		return nil, ErrNoPass
	}
	if s.pos >= len(s.edges) {
		return nil, ErrEndOfPass
	}
	end := len(s.edges)
	if len(buf) > 0 && s.pos+len(buf) < end {
		end = s.pos + len(buf)
	}
	batch := s.edges[s.pos:end:end]
	s.pos = end
	return batch, nil
}

// Len implements Stream; the length of an in-memory stream is always known.
func (s *MemoryStream) Len() (int, bool) { return len(s.edges), true }

// Vertices implements VertexCounter: 1 + the largest vertex ID of the edges
// FromEdges was given. A range sub-stream does not know it.
func (s *MemoryStream) Vertices() (int, bool) { return s.n, s.n >= 0 }

// RangeStream implements RangeStreamer: the sub-stream aliases the backing
// slice (zero copies) and is always available.
func (s *MemoryStream) RangeStream(lo, hi int) (Stream, bool) {
	if lo < 0 || hi < lo || hi > len(s.edges) {
		return nil, false
	}
	return &MemoryStream{edges: s.edges[lo:hi:hi], n: -1}, true
}

// Edges exposes the underlying order (for tests).
func (s *MemoryStream) Edges() []graph.Edge { return s.edges }

// PassCounter wraps a Stream and counts completed Reset calls, letting
// experiments report exactly how many passes an algorithm used. The read
// counter is atomic so that the concurrent range sub-streams of a sharded
// pass can charge their reads to the same meter.
type PassCounter struct {
	inner  Stream
	passes int
	reads  atomic.Int64
}

// NewPassCounter wraps the given stream.
func NewPassCounter(inner Stream) *PassCounter {
	return &PassCounter{inner: inner}
}

// Reset implements Stream and increments the pass count.
func (p *PassCounter) Reset() error {
	if err := p.inner.Reset(); err != nil {
		return err
	}
	p.passes++
	return nil
}

// Next implements Stream.
func (p *PassCounter) Next() (graph.Edge, error) { return nextEdge(p) }

// NextBatch implements Stream, charging the whole batch to the read counter.
func (p *PassCounter) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	batch, err := p.inner.NextBatch(buf)
	p.reads.Add(int64(len(batch)))
	return batch, err
}

// Len implements Stream.
func (p *PassCounter) Len() (int, bool) { return p.inner.Len() }

// RangeStream implements RangeStreamer when the wrapped stream does,
// returning a sub-stream whose reads are charged to this counter (the pass
// itself is charged by the engine's single Reset).
func (p *PassCounter) RangeStream(lo, hi int) (Stream, bool) {
	rs, ok := p.inner.(RangeStreamer)
	if !ok {
		return nil, false
	}
	sub, ok := rs.RangeStream(lo, hi)
	if !ok {
		return nil, false
	}
	return &countedRange{inner: sub, reads: &p.reads}, true
}

// countedRange forwards a range sub-stream while charging reads to the parent
// PassCounter. It forwards Close when the wrapped stream needs one.
type countedRange struct {
	inner Stream
	reads *atomic.Int64
}

func (c *countedRange) Reset() error { return c.inner.Reset() }

func (c *countedRange) Next() (graph.Edge, error) { return nextEdge(c) }

func (c *countedRange) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	batch, err := c.inner.NextBatch(buf)
	c.reads.Add(int64(len(batch)))
	return batch, err
}

func (c *countedRange) Len() (int, bool) { return c.inner.Len() }

func (c *countedRange) Close() error {
	if closer, ok := c.inner.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

// Passes returns how many passes have been started.
func (p *PassCounter) Passes() int { return p.passes }

// EdgesRead returns the total number of edges delivered across all passes.
func (p *PassCounter) EdgesRead() int64 { return p.reads.Load() }
