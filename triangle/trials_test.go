package triangle_test

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/stream"
	"degentri/triangle"
)

// writeHolmeKimFile writes a Holme–Kim graph as a text edge list and returns
// its exact triangle count.
func writeHolmeKimFile(t *testing.T, path string, n, k int) int64 {
	t.Helper()
	g := gen.HolmeKim(n, k, 0.6, 37)
	if err := stream.WriteGraphFile(path, g, "trials test"); err != nil {
		t.Fatal(err)
	}
	return g.TriangleCount()
}

// TestTrialsBitIdenticalAcrossBackends is the storage-refactor acceptance
// pin at the trials layer: the same canonical stream served from text and
// from block-indexed .bex v2 must produce identical per-trial estimates at
// every worker count — the storage format is an I/O detail, never a
// semantic one. It also pins that each run reports the backend it actually
// used.
func TestTrialsBitIdenticalAcrossBackends(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	writeHolmeKimFile(t, txt, 3000, 4)
	bex2 := filepath.Join(dir, "g.bex")
	src, err := stream.OpenAuto(txt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = stream.WriteBex2File(bex2, src, 128)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}

	backends := []struct {
		name string
		path string
	}{
		{stream.BackendText, txt},
		{stream.BackendBex2, bex2},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var want []float64
		for _, b := range backends {
			opts := triangle.Options{Epsilon: 0.3, Seed: 11, Workers: workers}
			res, err := triangle.EstimateFileTrials(b.path, opts, 3)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", b.name, workers, err)
			}
			if res.Backend != b.name {
				t.Fatalf("%s workers=%d: reported backend %q", b.name, workers, res.Backend)
			}
			if want == nil {
				want = res.Estimates
				continue
			}
			for i := range want {
				if res.Estimates[i] != want[i] {
					t.Fatalf("%s workers=%d trial %d: estimate %v, text gave %v",
						b.name, workers, i, res.Estimates[i], want[i])
				}
			}
		}
	}
}

// TestEstimateFileTrialsMatchesSingleRuns pins the -trials contract: trial i
// of a fused EstimateFileTrials run reproduces exactly the estimate a plain
// EstimateFile call with seed base+i·7919 returns, while the whole fused run
// costs far fewer physical scans than logical passes.
func TestEstimateFileTrialsMatchesSingleRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.txt")
	writeHolmeKimFile(t, path, 6000, 5)

	opts := triangle.Options{Epsilon: 0.2, Seed: 9}
	const trials = 3
	res, err := triangle.EstimateFileTrials(path, opts, trials)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != trials || res.Trials != trials {
		t.Fatalf("expected %d estimates, got %+v", trials, res)
	}
	if !res.DegeneracyApprox || res.DegeneracyBound < 1 {
		t.Fatalf("expected a streaming κ bound, got %+v", res)
	}
	if res.Scans >= res.Passes {
		t.Fatalf("fused trials should scan less than they pass: scans=%d passes=%d", res.Scans, res.Passes)
	}
	if res.StdErr < 0 {
		t.Fatalf("negative stderr: %+v", res)
	}

	for i := 0; i < trials; i++ {
		runOpts := opts
		runOpts.Seed = opts.Seed + uint64(i)*7919
		single, err := triangle.EstimateFile(path, runOpts)
		if err != nil {
			t.Fatalf("single run %d: %v", i, err)
		}
		if res.Estimates[i] != single.Estimate {
			t.Errorf("trial %d estimate %v != single-run estimate %v (same seed)", i, res.Estimates[i], single.Estimate)
		}
	}
}

func TestEstimateFileTrialsValidation(t *testing.T) {
	if _, err := triangle.EstimateFileTrials("nope.txt", triangle.Options{}, 0); err == nil {
		t.Fatal("expected an error for zero trials")
	}
	if _, err := triangle.EstimateFileTrials("/definitely/not/here.txt", triangle.Options{}, 2); err == nil {
		t.Fatal("expected an error for a missing file")
	}
}

// TestEstimateFileTrialsWithGuess covers the fixed-guess path (no geometric
// search): the trials run in lockstep, so the fused run's scans stay within
// the shared prelude plus one trial's own passes — not trials× that.
func TestEstimateFileTrialsWithGuess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "guess.txt")
	truth := writeHolmeKimFile(t, path, 6000, 5)

	opts := triangle.Options{Epsilon: 0.2, Seed: 4, TriangleGuess: truth}
	const trials = 6
	res, err := triangle.EstimateFileTrials(path, opts, trials)
	if err != nil {
		t.Fatal(err)
	}
	// Passes = prelude + trials·perTrial with identical lockstep trials;
	// scans must not exceed prelude + perTrial.
	perTrial := 5 // with the peel's degrees, the fixed-guess estimator runs at most 5 passes
	prelude := res.Passes - trials*perTrial
	if prelude < 0 {
		t.Fatalf("unexpected pass accounting: %+v", res)
	}
	if maxWant := prelude + perTrial; res.Scans > maxWant {
		t.Errorf("scans = %d, want at most prelude+one trial = %d (passes=%d)", res.Scans, maxWant, res.Passes)
	}
}

// TestEstimateFileTrialsScansDeterministic repeats one fused EstimateFileTrials
// and requires one Scans value: a trial's geometric search forks each batch
// of probes from the trial's client, so the trial never leaves the wave
// barrier between batches and its peers never scan without it.
func TestEstimateFileTrialsScansDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ba.bex")
	if _, err := stream.WriteBex2File(path, stream.FromGraph(gen.BarabasiAlbert(3000, 4, 7)), 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ trials, workers, runs int }{{3, 1, 12}, {8, 2, 8}} {
		scans := map[int]int{}
		for range c.runs {
			res, err := triangle.EstimateFileTrials(path, triangle.Options{Workers: c.workers}, c.trials)
			if err != nil {
				t.Fatal(err)
			}
			scans[res.Scans]++
		}
		if len(scans) != 1 {
			t.Errorf("%d trials at %d workers: scans over %d runs = %v, want one value", c.trials, c.workers, c.runs, scans)
		}
	}
}

// resetCounter counts the top-level Resets of the stream it wraps. At one
// worker every physical scan begins with exactly one such Reset: sharded
// passes run sequentially, and only a mid-scan resume (never needed without
// faults) would read through RangeStream, which is forwarded so the wrapped
// stream keeps its range access.
type resetCounter struct {
	stream.Stream
	resets atomic.Int64
}

func (r *resetCounter) Reset() error {
	r.resets.Add(1)
	return r.Stream.Reset()
}

func (r *resetCounter) RangeStream(lo, hi int) (stream.Stream, bool) {
	if rs, ok := r.Stream.(stream.RangeStreamer); ok {
		return rs.RangeStream(lo, hi)
	}
	return nil, false
}

// TestEstimateScansMatchStreamScans pins that the reported Scans are the
// physical scans the stream saw — the opening count of a text file
// included — for single estimates and fused trials, over text and .bex v2,
// with the streamed or a supplied κ, searching or at a fixed guess.
// ExactDegeneracy is left out: its materializing pass computes κ before the
// estimate starts and is not part of the estimate's accounting.
func TestEstimateScansMatchStreamScans(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	truth := writeHolmeKimFile(t, txt, 2000, 4)
	bex2 := filepath.Join(dir, "g.bex")
	src, err := stream.OpenAuto(txt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = stream.WriteBex2File(bex2, src, 128)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{txt, bex2} {
		for _, kappa := range []int{0, 4} {
			for _, guess := range []int64{0, truth} {
				name := fmt.Sprintf("%s/kappa=%d/guess=%d", filepath.Base(path), kappa, guess)
				var counter *resetCounter
				opts := triangle.Options{Epsilon: 0.3, Seed: 3, Workers: 1, Degeneracy: kappa, TriangleGuess: guess,
					WrapStream: func(s stream.Stream) stream.Stream {
						counter = &resetCounter{Stream: s}
						return counter
					}}
				res, err := triangle.EstimateFile(path, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if seen := int(counter.resets.Load()); res.Scans != seen {
					t.Errorf("%s: EstimateFile reports %d scans, the stream saw %d", name, res.Scans, seen)
				}
				tr, err := triangle.EstimateFileTrials(path, opts, 3)
				if err != nil {
					t.Fatalf("%s trials: %v", name, err)
				}
				if seen := int(counter.resets.Load()); tr.Scans != seen {
					t.Errorf("%s: EstimateFileTrials reports %d scans, the stream saw %d", name, tr.Scans, seen)
				}
			}
		}
	}
}

// traced forwards only the Stream methods, RangeStream and Close, the shape
// of a timing wrapper: it reports no vertex count of its own.
type traced struct{ inner stream.Stream }

func (s traced) Reset() error                                     { return s.inner.Reset() }
func (s traced) Next() (graph.Edge, error)                        { return s.inner.Next() }
func (s traced) NextBatch(buf []graph.Edge) ([]graph.Edge, error) { return s.inner.NextBatch(buf) }
func (s traced) Len() (int, bool)                                 { return s.inner.Len() }

func (s traced) RangeStream(lo, hi int) (stream.Stream, bool) {
	if rs, ok := s.inner.(stream.RangeStreamer); ok {
		return rs.RangeStream(lo, hi)
	}
	return nil, false
}

func (s traced) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// TestWrapStreamKeepsTheCost pins that a WrapStream wrapper that forwards no
// vertex count changes nothing an estimate reports: n is the opened
// stream's (a .bex footer's, a text's opening count's, which runs through
// the wrapper), so the wrapped run makes no pass to find it.
func TestWrapStreamKeepsTheCost(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	writeHolmeKimFile(t, txt, 2000, 4)
	bex := filepath.Join(dir, "g.bex")
	src, err := stream.OpenAuto(txt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = stream.WriteBex2File(bex, src, 128)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{txt, bex} {
		opts := triangle.Options{Seed: 5, Workers: 2}
		plain, err := triangle.EstimateFile(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.WrapStream = func(s stream.Stream) stream.Stream { return traced{s} }
		wrapped, err := triangle.EstimateFile(path, opts)
		if err != nil {
			t.Fatalf("%s wrapped: %v", filepath.Base(path), err)
		}
		if math.Float64bits(wrapped.Estimate) != math.Float64bits(plain.Estimate) || wrapped.Passes != plain.Passes ||
			wrapped.Scans != plain.Scans || wrapped.SpaceWords != plain.SpaceWords || wrapped.DegeneracyBound != plain.DegeneracyBound {
			t.Errorf("%s: wrapped %+v, unwrapped %+v", filepath.Base(path), wrapped, plain)
		}
	}
}
