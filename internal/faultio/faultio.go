// Package faultio injects deterministic, seed-keyed I/O faults into edge
// streams, for testing and chaos-smoking the engine's fault-tolerance layer
// (cancellation, bounded retry, truncation detection) without real flaky
// hardware.
//
// A Plan describes a fault schedule as a pure function of (Seed, reset
// ordinal): every Reset of a wrapped stream — the top-level stream or any
// range sub-stream — claims the next ordinal a and draws that pass's fault
// (kind and edge position) from the RNG stream MixSeed(Seed, faultioKey, a).
// Two runs over the same plan therefore draw the same fault sequence; under
// concurrent shard workers the *assignment* of ordinals to shards depends on
// goroutine scheduling, but that can never show in results — the repository's
// retry/resume contract makes healed scans bit-identical, which is exactly
// the property the injector exists to exercise.
//
// Fault kinds:
//
//   - KindEIO: the read at the drawn position fails with an error marked
//     transient (stream.IsTransient) — the engine's retry layer resumes it.
//   - KindStall: the read at the drawn position sleeps Plan.Stall, then
//     proceeds; wall-clock only, no error (deadline tests).
//   - KindTruncate: the pass silently ends at the drawn position — a clean
//     early EOF, the nastiest failure: the engine must detect the short count
//     itself (stream.ErrTruncated).
//   - KindFailReset: the Reset itself fails transiently (nothing delivered,
//     state-free to retry).
//   - KindFailClose: the next Close returns a transient error after actually
//     closing (callers must tolerate close errors).
//
// Plan.MaxFaults caps the total injections so a bounded-retry run eventually
// heals; without a cap a plan with Every=1 can out-fault any retry budget,
// which is itself a useful test (clean wrapped error, no hang).
package faultio

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"degentri/internal/graph"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

// faultioKey keys the injector's RNG streams under sampling.MixSeed; it is
// not a pass key (the injector sits below the estimators) but is kept
// distinct from every key in internal/core and internal/clique anyway.
const faultioKey = 0xFA17

// Kind is one injectable fault type.
type Kind int

const (
	kindNone Kind = iota
	// KindEIO fails one read with a transient error.
	KindEIO
	// KindStall delays one read by Plan.Stall.
	KindStall
	// KindTruncate silently ends the pass early (clean EOF).
	KindTruncate
	// KindFailReset fails one Reset with a transient error.
	KindFailReset
	// KindFailClose fails one Close with a transient error (after closing).
	KindFailClose
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case kindNone:
		return "none"
	case KindEIO:
		return "eio"
	case KindStall:
		return "stall"
	case KindTruncate:
		return "trunc"
	case KindFailReset:
		return "reset"
	case KindFailClose:
		return "close"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Plan is a deterministic fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed keys every draw of the schedule.
	Seed uint64
	// Every injects a fault on every Every-th Reset (1 = every pass).
	// <= 0 disables injection.
	Every int
	// MaxFaults caps the total faults injected across the stream and all its
	// range sub-streams; 0 = unlimited.
	MaxFaults int64
	// Kinds is the set of kinds the schedule draws from; empty selects
	// {KindEIO} (the transient kind every retry test wants).
	Kinds []Kind
	// Stall is the KindStall delay; <= 0 selects 1ms.
	Stall time.Duration
	// Horizon bounds the drawn fault position when the wrapped stream does
	// not know its length; <= 0 selects 4096.
	Horizon int
}

// Enabled reports whether the plan can inject anything.
func (p Plan) Enabled() bool { return p.Every > 0 }

// state is shared by a wrapped stream and all its range sub-streams: the
// reset ordinal allocator and the global fault budget.
type state struct {
	plan   Plan
	resets atomic.Int64
	faults atomic.Int64
}

// take claims one slot of the fault budget; false means the cap is spent.
func (st *state) take() bool {
	if st.plan.MaxFaults <= 0 {
		st.faults.Add(1)
		return true
	}
	for {
		cur := st.faults.Load()
		if cur >= st.plan.MaxFaults {
			return false
		}
		if st.faults.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Faulty wraps a stream with the plan's fault schedule. It implements
// stream.Stream always, stream.RangeStreamer and stream.VertexCounter
// whenever the inner stream does (range sub-streams are wrapped with the
// same shared schedule), and stream.FileBacked (Close delegates to the inner
// stream's Close if any).
type Faulty struct {
	inner stream.Stream
	st    *state

	// Per-pass schedule, drawn at Reset.
	scan      int64
	kind      Kind
	pos       int // fault fires after pos edges of this pass
	delivered int
	consumed  bool
	truncated bool
	failClose bool
}

// New wraps inner under the plan. Wrapping with a disabled plan is legal and
// delivers the inner stream's edges untouched.
func New(inner stream.Stream, plan Plan) *Faulty {
	if len(plan.Kinds) == 0 {
		plan.Kinds = []Kind{KindEIO}
	}
	if plan.Stall <= 0 {
		plan.Stall = time.Millisecond
	}
	if plan.Horizon <= 0 {
		plan.Horizon = 4096
	}
	return &Faulty{inner: inner, st: &state{plan: plan}}
}

// Faults reports how many faults have been injected so far (stream plus all
// of its range sub-streams).
func (f *Faulty) Faults() int64 { return f.st.faults.Load() }

// schedule draws this pass's fault from the next reset ordinal.
func (f *Faulty) schedule() {
	f.scan = f.st.resets.Add(1)
	f.kind = kindNone
	f.delivered = 0
	f.consumed = false
	f.truncated = false
	p := f.st.plan
	if p.Every <= 0 || f.scan%int64(p.Every) != 0 {
		return
	}
	if p.MaxFaults > 0 && f.st.faults.Load() >= p.MaxFaults {
		return
	}
	rng := sampling.NewRNG(sampling.MixSeed(p.Seed, faultioKey, uint64(f.scan)))
	f.kind = p.Kinds[rng.Intn(len(p.Kinds))]
	limit := p.Horizon
	if n, ok := f.inner.Len(); ok && n > 0 {
		limit = n
	}
	f.pos = rng.Intn(limit)
}

// injected builds the error of one fired fault, branded transient.
func (f *Faulty) injected(what string) error {
	return stream.MarkTransient(fmt.Errorf("faultio: injected %s at edge %d (scan %d, seed %d)",
		what, f.delivered, f.scan, f.st.plan.Seed))
}

// Reset implements stream.Stream.
func (f *Faulty) Reset() error {
	f.schedule()
	switch f.kind {
	case KindFailReset:
		f.consumed = true
		if f.st.take() {
			return stream.MarkTransient(fmt.Errorf("faultio: injected Reset failure (scan %d, seed %d)",
				f.scan, f.st.plan.Seed))
		}
	case KindFailClose:
		f.failClose = true
		f.consumed = true
	}
	return f.inner.Reset()
}

// NextBatch implements stream.Stream, firing this pass's fault at the drawn
// position: batches are trimmed so the fault lands between batches, exactly
// at the edge it was drawn for.
func (f *Faulty) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	if f.truncated {
		return nil, stream.ErrEndOfPass
	}
	armed := f.kind != kindNone && f.kind != KindFailReset && f.kind != KindFailClose && !f.consumed
	if armed {
		remain := f.pos - f.delivered
		if remain <= 0 {
			f.consumed = true
			switch f.kind {
			case KindEIO:
				if f.st.take() {
					return nil, f.injected("read error")
				}
			case KindStall:
				if f.st.take() {
					time.Sleep(f.st.plan.Stall)
				}
			case KindTruncate:
				if f.st.take() {
					f.truncated = true
					return nil, stream.ErrEndOfPass
				}
			}
		} else {
			// Cap the batch so the fault position is a batch boundary.
			if len(buf) == 0 {
				if remain > stream.DefaultBatchSize {
					remain = stream.DefaultBatchSize
				}
				buf = make([]graph.Edge, remain)
			} else if len(buf) > remain {
				buf = buf[:remain]
			}
		}
	}
	batch, err := f.inner.NextBatch(buf)
	f.delivered += len(batch)
	return batch, err
}

// Next implements stream.Stream.
func (f *Faulty) Next() (graph.Edge, error) {
	var one [1]graph.Edge
	batch, err := f.NextBatch(one[:])
	if err != nil {
		return graph.Edge{}, err
	}
	return batch[0], nil
}

// Len implements stream.Stream.
func (f *Faulty) Len() (int, bool) { return f.inner.Len() }

// Vertices implements stream.VertexCounter when the inner stream knows its
// vertex count: faults disturb reads, never the stream's facts.
func (f *Faulty) Vertices() (int, bool) { return stream.VerticesOf(f.inner) }

// RangeStream implements stream.RangeStreamer when the inner stream does:
// sub-streams share the schedule (reset ordinals and the fault budget), so
// faults land inside shards of parallel passes too.
func (f *Faulty) RangeStream(lo, hi int) (stream.Stream, bool) {
	rs, ok := f.inner.(stream.RangeStreamer)
	if !ok {
		return nil, false
	}
	sub, ok := rs.RangeStream(lo, hi)
	if !ok {
		return nil, false
	}
	return &Faulty{inner: sub, st: f.st}, true
}

// Close implements stream.FileBacked, delegating to the inner stream's Close
// when it has one. A pending KindFailClose fires here (after the real close,
// so no handle leaks).
func (f *Faulty) Close() error {
	var err error
	if c, ok := f.inner.(io.Closer); ok {
		err = c.Close()
	}
	if f.failClose {
		f.failClose = false
		if f.st.take() {
			return stream.MarkTransient(fmt.Errorf("faultio: injected Close failure (scan %d, seed %d)",
				f.scan, f.st.plan.Seed))
		}
	}
	return err
}
