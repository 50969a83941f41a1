package faultio

import (
	"errors"
	"strings"
	"testing"
	"time"

	"degentri/internal/graph"
	"degentri/internal/stream"
)

func edgesN(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i % 53), V: int32(53 + i%47)}
	}
	return edges
}

// scanOnce runs one pass over f, returning the edges delivered before the
// first error (nil error means the pass ended cleanly).
func scanOnce(f *Faulty) (got []graph.Edge, resetErr, readErr error) {
	if err := f.Reset(); err != nil {
		return nil, err, nil
	}
	for {
		batch, err := f.NextBatch(nil)
		if errors.Is(err, stream.ErrEndOfPass) {
			return got, nil, nil
		}
		if err != nil {
			return got, nil, err
		}
		got = append(got, batch...)
	}
}

// TestDisabledPlanIsTransparent pins that a zero plan delivers the inner
// stream untouched.
func TestDisabledPlanIsTransparent(t *testing.T) {
	edges := edgesN(10000)
	f := New(stream.FromEdges(edges), Plan{})
	got, rerr, err := scanOnce(f)
	if rerr != nil || err != nil {
		t.Fatalf("disabled plan errored: %v / %v", rerr, err)
	}
	if len(got) != len(edges) {
		t.Fatalf("disabled plan delivered %d edges, want %d", len(got), len(edges))
	}
	if f.Faults() != 0 {
		t.Fatalf("disabled plan injected %d faults", f.Faults())
	}
}

// TestEIOFiresAtDrawnPositionDeterministically pins the schedule's
// determinism: the same (seed, reset ordinal) draws the same fault at the
// same edge position, the error is branded transient, and the edges
// delivered before it are a clean prefix.
func TestEIOFiresAtDrawnPositionDeterministically(t *testing.T) {
	edges := edgesN(8000)
	plan := Plan{Seed: 7, Every: 1, Kinds: []Kind{KindEIO}}

	run := func() (int, error) {
		f := New(stream.FromEdges(edges), plan)
		got, rerr, err := scanOnce(f)
		if rerr != nil {
			t.Fatalf("unexpected Reset error: %v", rerr)
		}
		for i, e := range got {
			if e != edges[i] {
				t.Fatalf("prefix edge %d = %v, want %v", i, e, edges[i])
			}
		}
		return len(got), err
	}
	n1, err1 := run()
	n2, err2 := run()
	if err1 == nil || err2 == nil {
		t.Fatal("EIO plan with Every=1 did not fault")
	}
	if !stream.IsTransient(err1) {
		t.Fatalf("injected EIO not transient: %v", err1)
	}
	if n1 != n2 {
		t.Fatalf("same (seed, ordinal) faulted at positions %d and %d", n1, n2)
	}
}

// TestMaxFaultsBoundsInjection pins the healing bound: after MaxFaults
// injections the stream behaves, so a bounded-retry caller always finishes.
func TestMaxFaultsBoundsInjection(t *testing.T) {
	edges := edgesN(5000)
	f := New(stream.FromEdges(edges), Plan{Seed: 3, Every: 1, MaxFaults: 2, Kinds: []Kind{KindEIO}})
	failures := 0
	for attempt := 0; attempt < 10; attempt++ {
		got, rerr, err := scanOnce(f)
		if rerr != nil {
			t.Fatalf("unexpected Reset error: %v", rerr)
		}
		if err != nil {
			failures++
			continue
		}
		if len(got) != len(edges) {
			t.Fatalf("clean pass delivered %d edges, want %d", len(got), len(edges))
		}
		if failures != 2 {
			t.Fatalf("healed after %d failures, want 2 (MaxFaults)", failures)
		}
		if f.Faults() != 2 {
			t.Fatalf("Faults() = %d, want 2", f.Faults())
		}
		return
	}
	t.Fatal("stream never healed within 10 attempts")
}

// TestTruncateEndsPassSilently pins the nastiest kind: the pass ends with a
// clean ErrEndOfPass short of the full stream, and only the caller's own
// count can notice.
func TestTruncateEndsPassSilently(t *testing.T) {
	edges := edgesN(6000)
	f := New(stream.FromEdges(edges), Plan{Seed: 11, Every: 1, Kinds: []Kind{KindTruncate}})
	got, rerr, err := scanOnce(f)
	if rerr != nil || err != nil {
		t.Fatalf("truncation must look clean, got errors %v / %v", rerr, err)
	}
	if len(got) >= len(edges) {
		t.Fatalf("truncated pass delivered all %d edges", len(got))
	}
}

// TestFailResetIsTransient pins the Reset fault kind.
func TestFailResetIsTransient(t *testing.T) {
	f := New(stream.FromEdges(edgesN(100)), Plan{Seed: 5, Every: 1, MaxFaults: 1, Kinds: []Kind{KindFailReset}})
	if err := f.Reset(); !stream.IsTransient(err) {
		t.Fatalf("injected Reset error = %v, want transient", err)
	}
	if err := f.Reset(); err != nil {
		t.Fatalf("Reset after the budget was spent: %v", err)
	}
}

// TestRangeSubStreamsShareSchedule pins that range sub-streams draw from the
// same ordinal sequence and fault budget as the parent.
func TestRangeSubStreamsShareSchedule(t *testing.T) {
	edges := edgesN(4000)
	f := New(stream.FromEdges(edges), Plan{Seed: 9, Every: 1, MaxFaults: 3, Kinds: []Kind{KindEIO}})
	sub, ok := f.RangeStream(100, 2100)
	if !ok {
		t.Fatal("memory stream lost range access through the wrapper")
	}
	fsub, isFaulty := sub.(*Faulty)
	if !isFaulty {
		t.Fatalf("sub-stream is %T, want *Faulty", sub)
	}
	for i := 0; i < 5; i++ {
		fsub.Reset()
	}
	// The parent's next pass claims ordinal 6, which its fault names.
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	var err error
	for err == nil {
		_, err = f.NextBatch(nil)
	}
	if !strings.Contains(err.Error(), "(scan 6,") {
		t.Fatalf("parent's first pass after 5 sub-stream resets failed with %v, want a fault of scan 6", err)
	}
	if f.Faults() != fsub.Faults() {
		t.Fatal("parent and sub-stream disagree on the fault count")
	}
}

// TestParsePlan pins the -inject spec grammar.
func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7,every=3,max=10,kinds=eio+reset,stall=5ms,horizon=1000")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 7, Every: 3, MaxFaults: 10, Kinds: []Kind{KindEIO, KindFailReset}, Stall: 5 * time.Millisecond, Horizon: 1000}
	if p.Seed != want.Seed || p.Every != want.Every || p.MaxFaults != want.MaxFaults ||
		p.Stall != want.Stall || p.Horizon != want.Horizon || len(p.Kinds) != 2 ||
		p.Kinds[0] != KindEIO || p.Kinds[1] != KindFailReset {
		t.Fatalf("ParsePlan = %+v, want %+v", p, want)
	}
	if !p.Enabled() {
		t.Fatal("parsed plan should be enabled")
	}
	if p, err := ParsePlan(""); err != nil || p.Enabled() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	for _, bad := range []string{"bogus=1", "kinds=nope", "every", "every=x"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", bad)
		}
	}
}

// TestVertexCountForwarded pins that a fault schedule leaves the wrapped
// stream's vertex count visible, and invents none for a stream without one.
func TestVertexCountForwarded(t *testing.T) {
	inner := stream.FromEdges(edgesN(1000))
	if n, ok := stream.VerticesOf(New(inner, Plan{Seed: 1, Every: 1})); !ok || n != 100 {
		t.Errorf("Vertices() = %d, %v through a fault schedule; want 100, true", n, ok)
	}
	if n, ok := stream.VerticesOf(New(stream.NewPassCounter(inner), Plan{})); ok {
		t.Errorf("Vertices() = %d over a stream that reports none", n)
	}
}
