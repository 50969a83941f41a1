package triangle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"degentri/internal/core"
	"degentri/internal/faultio"
	"degentri/internal/graph"
	"degentri/internal/stream"
)

// faultTestFiles writes the edge list in both on-disk formats: text and
// block-indexed .bex v2 (tiny blocks so even small graphs span several). The
// returned map is keyed by backend name.
func faultTestFiles(t *testing.T, edges []Edge) map[string]string {
	t.Helper()
	dir := t.TempDir()
	textPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		fmt.Fprintf(f, "%d %d\n", e.U, e.V)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := stream.OpenAuto(textPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	bex2 := filepath.Join(dir, "g.bex")
	if _, err := stream.WriteBex2File(bex2, fs, 64); err != nil {
		t.Fatal(err)
	}
	return map[string]string{"text": textPath, "bex2": bex2}
}

// TestFaultScheduleDoesNotChangeResult is the PR's acceptance property: a
// seed-keyed schedule of transient faults (mid-read EIO, failing Resets),
// healed by bounded retry, yields a Result with exactly the same Estimate,
// Passes, Scans, and SpaceWords as the fault-free run — at every worker
// count, over in-memory, text-file and .bex v2 streams. Only Retries may
// differ.
func TestFaultScheduleDoesNotChangeResult(t *testing.T) {
	edges := ClusteredPreferentialAttachment(1500, 4, 0.5, 11)
	paths := faultTestFiles(t, edges)

	base := Options{Epsilon: 0.3, Seed: 5}
	// MaxFaults stays below the default 3 retry attempts, so no single scan
	// can exhaust its budget even if every fault lands on it.
	plan := faultio.Plan{Seed: 99, Every: 2, MaxFaults: 2,
		Kinds: []faultio.Kind{faultio.KindEIO, faultio.KindFailReset}}

	type runner func(opts Options) (Result, error)
	fileRunner := func(path string, cache bool) runner {
		return func(opts Options) (Result, error) {
			opts.DecodeCache = cache
			return EstimateFile(path, opts)
		}
	}
	// The .bex v2 backend runs twice: plain and with the decoded-block
	// cache, whose insert-after-verified-decode invariant means a fault mid
	// block never leaves a partial decode visible — so the faulted cached run
	// must match its clean run exactly, like every other configuration.
	sources := []struct {
		name string
		run  runner
	}{
		{"memory", func(opts Options) (Result, error) { return Estimate(edges, opts) }},
		{"text", fileRunner(paths["text"], false)},
		{"bex2", fileRunner(paths["bex2"], false)},
		{"bex2/cache", fileRunner(paths["bex2"], true)},
	}

	totalRetries := 0
	totalFaults := int64(0)
	for _, src := range sources {
		var want Result
		for i, workers := range []int{1, 2, 4, 8} {
			opts := base
			opts.Workers = workers
			clean, err := src.run(opts)
			if err != nil {
				t.Fatalf("%s workers=%d clean run: %v", src.name, workers, err)
			}
			if clean.Retries != 0 {
				t.Fatalf("%s workers=%d clean run reported %d retries", src.name, workers, clean.Retries)
			}
			if i == 0 {
				want = clean
			} else if clean.Estimate != want.Estimate || clean.Passes != want.Passes ||
				clean.Scans != want.Scans || clean.SpaceWords != want.SpaceWords {
				t.Fatalf("%s workers=%d clean run diverged from workers=1: %+v vs %+v",
					src.name, workers, clean, want)
			}

			var faulty *faultio.Faulty
			opts.WrapStream = func(s stream.Stream) stream.Stream {
				faulty = faultio.New(s, plan)
				return faulty
			}
			got, err := src.run(opts)
			if err != nil {
				t.Fatalf("%s workers=%d faulted run: %v", src.name, workers, err)
			}
			if got.Estimate != want.Estimate || got.Passes != want.Passes ||
				got.Scans != want.Scans || got.SpaceWords != want.SpaceWords {
				t.Fatalf("%s workers=%d: faults changed the result: %+v vs %+v",
					src.name, workers, got, want)
			}
			totalRetries += got.Retries
			if faulty != nil {
				totalFaults += faulty.Faults()
			}
		}
	}
	if totalFaults == 0 {
		t.Fatal("the fault plan injected nothing across every configuration; the test proved nothing")
	}
	if totalRetries == 0 {
		t.Fatal("faults were injected but no run reported retries")
	}
}

// cancelAfter cancels a context at the start of its n-th Reset, tying the
// cancellation deterministically to scan progress rather than wall clock. It
// deliberately does not implement RangeStreamer.
type cancelAfter struct {
	inner  stream.Stream
	cancel context.CancelFunc
	after  int
	resets int
}

func (c *cancelAfter) Reset() error {
	c.resets++
	if c.resets == c.after {
		c.cancel()
	}
	return c.inner.Reset()
}

func (c *cancelAfter) Next() (graph.Edge, error) { return c.inner.Next() }

func (c *cancelAfter) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	return c.inner.NextBatch(buf)
}

func (c *cancelAfter) Len() (int, bool) { return c.inner.Len() }

// TestCancellationAtEveryScan sweeps the cancellation point across every scan
// of a run: each outcome must be exactly one of (a) a clean result (cancel
// fired after the work was done or never), (b) a graceful partial result —
// nil error, Partial set, a usable estimate — or (c) an error wrapping
// context.Canceled and branded core.ErrAborted. Nothing else: no hangs, no
// unclassified errors, no partial flags on errors.
func TestCancellationAtEveryScan(t *testing.T) {
	edges := ClusteredPreferentialAttachment(800, 4, 0.5, 3)
	opts := Options{Epsilon: 0.3, Seed: 5, Workers: 1}

	clean, err := Estimate(edges, opts)
	if err != nil {
		t.Fatal(err)
	}

	sawCancel, sawPartial, sawClean := 0, 0, 0
	for k := 1; k <= clean.Scans+2; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		kopts := opts
		kopts.WrapStream = func(s stream.Stream) stream.Stream {
			return &cancelAfter{inner: s, cancel: cancel, after: k}
		}
		res, err := EstimateCtx(ctx, edges, kopts)
		cancel()
		switch {
		case err == nil && !res.Partial:
			sawClean++
			if res.Estimate != clean.Estimate {
				t.Fatalf("k=%d: clean result %v differs from reference %v", k, res.Estimate, clean.Estimate)
			}
		case err == nil && res.Partial:
			sawPartial++
			if res.Estimate <= 0 {
				t.Fatalf("k=%d: partial result carries no estimate: %+v", k, res)
			}
		default:
			sawCancel++
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("k=%d: error does not wrap context.Canceled: %v", k, err)
			}
			if !errors.Is(err, core.ErrAborted) {
				t.Fatalf("k=%d: error not branded core.ErrAborted: %v", k, err)
			}
			if res.Partial {
				t.Fatalf("k=%d: Partial set alongside an error", k)
			}
		}
	}
	if sawCancel == 0 {
		t.Error("no cancellation point produced a wrapped context.Canceled error")
	}
	if sawPartial == 0 {
		t.Error("no cancellation point produced a graceful partial result")
	}
	if sawClean == 0 {
		t.Error("no cancellation point produced a clean result (sweep bounds are wrong)")
	}
}

// TestCancellationWithDecodeCache sweeps the same cancellation points over a
// .bex v2 file served with the decoded-block cache: every outcome must fall
// in the same three classes, and — the cache invariant under test — a run
// cancelled mid-scan must never leave a partially-decoded block behind for
// later readers, so a clean run after the whole sweep still matches the
// reference exactly.
func TestCancellationWithDecodeCache(t *testing.T) {
	edges := ClusteredPreferentialAttachment(800, 4, 0.5, 3)
	raw := make([]graph.Edge, len(edges))
	for i, e := range edges {
		raw[i] = graph.Edge{U: int32(e.U), V: int32(e.V)}
	}
	path := filepath.Join(t.TempDir(), "g.bex")
	if _, err := stream.WriteBex2File(path, stream.FromEdges(raw), 64); err != nil {
		t.Fatal(err)
	}
	opts := Options{Epsilon: 0.3, Seed: 5, Workers: 1, DecodeCache: true}

	clean, err := EstimateFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}

	for k := 1; k <= clean.Scans+2; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		kopts := opts
		kopts.WrapStream = func(s stream.Stream) stream.Stream {
			return &cancelAfter{inner: s, cancel: cancel, after: k}
		}
		res, err := EstimateFileCtx(ctx, path, kopts)
		cancel()
		switch {
		case err == nil && !res.Partial:
			if res.Estimate != clean.Estimate {
				t.Fatalf("k=%d: clean result %v differs from reference %v", k, res.Estimate, clean.Estimate)
			}
		case err == nil && res.Partial:
			if res.Estimate <= 0 {
				t.Fatalf("k=%d: partial result carries no estimate: %+v", k, res)
			}
		default:
			if !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrAborted) {
				t.Fatalf("k=%d: unclassified cancellation error: %v", k, err)
			}
		}
	}

	// The cache is now warm with whatever the interrupted sweep runs left
	// behind; a final run served from it must still realize the reference.
	after, err := EstimateFile(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Estimate != clean.Estimate || after.Passes != clean.Passes || after.Scans != clean.Scans {
		t.Fatalf("post-sweep cached run diverged: %+v vs %+v", after, clean)
	}
}

// TestDeadlineClassification pins the error taxonomy at the API boundary: an
// expired deadline surfaces as core.ErrDeadline wrapping
// context.DeadlineExceeded; a cancelled context as core.ErrAborted.
func TestDeadlineClassification(t *testing.T) {
	edges := Wheel(501)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := EstimateCtx(ctx, edges, Options{Seed: 2})
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("expired deadline error = %v, want wrapped context.DeadlineExceeded + core.ErrDeadline", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, err = EstimateCtx(ctx2, edges, Options{Seed: 2})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrAborted) {
		t.Fatalf("cancelled ctx error = %v, want wrapped context.Canceled + core.ErrAborted", err)
	}
}

// TestChaosSmoke drives randomized (but seed-keyed, hence reproducible) fault
// schedules through the fused-trials path and checks the system always winds
// down: every outcome is a result or a classified error, and no goroutines
// leak. CI runs this under -race -shuffle=on.
func TestChaosSmoke(t *testing.T) {
	edges := ClusteredPreferentialAttachment(600, 3, 0.4, 9)
	paths := faultTestFiles(t, edges)
	baseline := runtime.NumGoroutine()

	for seed := uint64(1); seed <= 4; seed++ {
		for name, path := range paths {
			plan := faultio.Plan{Seed: seed, Every: 3, MaxFaults: 4, Stall: 100 * time.Microsecond,
				Kinds: []faultio.Kind{faultio.KindEIO, faultio.KindFailReset, faultio.KindStall}}
			// DecodeCache is on for the whole chaos sweep: text ignores it,
			// .bex v2 runs it under fire.
			opts := Options{Epsilon: 0.4, Seed: seed, Workers: 4, DecodeCache: true}
			opts.WrapStream = func(s stream.Stream) stream.Stream { return faultio.New(s, plan) }
			res, err := EstimateFileTrialsCtx(context.Background(), path, opts, 3)
			if err != nil {
				// Transient kinds healed under retry must not surface; any
				// error here is a bug.
				t.Fatalf("seed=%d %s: %v", seed, name, err)
			}
			if res.Trials != 3 || len(res.Estimates) != 3 {
				t.Fatalf("seed=%d %s: malformed result %+v", seed, name, res)
			}
		}
	}

	// Everything the engine spawned must be gone; poll briefly to let worker
	// goroutines finish their epilogue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d at baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
