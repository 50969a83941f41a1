package sched_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// A scheduler client must satisfy the executor contract of the shared pass
// framework — that is the whole point of the package.
var _ passes.Executor = (*sched.Client)(nil)

func edgesN(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i % 97), V: int32(97 + i%89)}
	}
	return edges
}

// countingPass returns a pass that tallies the edges it sees (into a
// per-shard array merged in shard order, like a real pass body would).
func countingPass(total *int) (func(int, []graph.Edge) error, func(int) error) {
	var perShard [stream.NumShards]int
	process := func(shard int, batch []graph.Edge) error {
		perShard[shard] += len(batch)
		return nil
	}
	merge := func(shard int) error {
		*total += perShard[shard]
		perShard[shard] = 0
		return nil
	}
	return process, merge
}

// TestLockstepClientsFuse pins the scan economy: k clients each running p
// passes in lockstep cost exactly p physical scans, not k·p.
func TestLockstepClientsFuse(t *testing.T) {
	edges := edgesN(40000)
	m := len(edges)
	const clients, passesEach = 5, 7

	s := sched.New(stream.FromEdges(edges), m, 4)
	cs := make([]*sched.Client, clients)
	for i := range cs {
		cs[i] = s.NewClient()
	}
	totals := make([]int, clients*passesEach)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cs[i].Done()
			for p := 0; p < passesEach; p++ {
				process, merge := countingPass(&totals[i*passesEach+p])
				if err := cs[i].RunPass(process, merge); err != nil {
					t.Errorf("client %d pass %d: %v", i, p, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	for i, tot := range totals {
		if tot != m {
			t.Errorf("pass %d saw %d edges, want %d", i, tot, m)
		}
	}
	if got := s.Scans(); got != passesEach {
		t.Errorf("%d clients × %d passes cost %d scans, want %d (fused)", clients, passesEach, got, passesEach)
	}
	for i := range cs {
		if cs[i].Passes() != passesEach {
			t.Errorf("client %d reports %d logical passes, want %d", i, cs[i].Passes(), passesEach)
		}
	}
}

// TestUnevenClientsDrain checks clients with different pass counts: early
// finishers must not strand the rest, and every pass still sees the whole
// stream.
func TestUnevenClientsDrain(t *testing.T) {
	edges := edgesN(20000)
	m := len(edges)
	counts := []int{1, 3, 9}

	s := sched.New(stream.FromEdges(edges), m, 2)
	cs := make([]*sched.Client, len(counts))
	for i := range cs {
		cs[i] = s.NewClient()
	}
	var wg sync.WaitGroup
	for i, n := range counts {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			defer cs[i].Done()
			for p := 0; p < n; p++ {
				total := 0
				process, merge := countingPass(&total)
				if err := cs[i].RunPass(process, merge); err != nil {
					t.Errorf("client %d pass %d: %v", i, p, err)
					return
				}
				if total != m {
					t.Errorf("client %d pass %d saw %d edges, want %d", i, p, total, m)
				}
			}
		}(i, n)
	}
	wg.Wait()
	// Scans must cover the longest client but never exceed the total passes.
	maxPasses, sumPasses := 0, 0
	for _, n := range counts {
		sumPasses += n
		if n > maxPasses {
			maxPasses = n
		}
	}
	if got := s.Scans(); got < maxPasses || got > sumPasses {
		t.Errorf("scans = %d, want within [%d, %d]", got, maxPasses, sumPasses)
	}
	// In lockstep registration the schedule is exactly max(counts): clients
	// drop out as they finish and the rest keep fusing.
	if got := s.Scans(); got != maxPasses {
		t.Errorf("scans = %d, want %d (drained clients must not add scans)", got, maxPasses)
	}
}

// TestFusedEqualsDirect runs a real randomized pass (neighbor sampling) both
// ways: fused clients on one scheduler vs. private one-client executors
// (passes.NewDirect). The
// merged samples must be bit-identical — fusion may not change realized
// randomness.
func TestFusedEqualsDirect(t *testing.T) {
	edges := edgesN(30000)
	m := len(edges)
	verts := []int{0, 5, 50, 96}
	const seed = 314159

	direct := func(passKey, mergeKey uint64) []int {
		groups := graph.NewVertexGroups(append([]int(nil), verts...))
		merged, err := passes.SampleNeighbors(
			passes.NewDirect(stream.FromEdges(edges), m, 4), groups, len(verts), seed, passKey, mergeKey)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(verts))
		for i := range merged {
			out[i] = merged[i].W
		}
		return out
	}
	want1, want2 := direct(11, 12), direct(21, 22)

	s := sched.New(stream.FromEdges(edges), m, 4)
	c1, c2 := s.NewClient(), s.NewClient()
	got := make([][]int, 2)
	var wg sync.WaitGroup
	run := func(slot int, c *sched.Client, passKey, mergeKey uint64) {
		defer wg.Done()
		defer c.Done()
		groups := graph.NewVertexGroups(append([]int(nil), verts...))
		merged, err := passes.SampleNeighbors(c, groups, len(verts), seed, passKey, mergeKey)
		if err != nil {
			t.Errorf("fused client %d: %v", slot, err)
			return
		}
		out := make([]int, len(verts))
		for i := range merged {
			out[i] = merged[i].W
		}
		got[slot] = out
	}
	wg.Add(2)
	go run(0, c1, 11, 12)
	go run(1, c2, 21, 22)
	wg.Wait()

	if s.Scans() != 1 {
		t.Errorf("two fused sampling passes cost %d scans, want 1", s.Scans())
	}
	for i := range verts {
		if got[0][i] != want1[i] || got[1][i] != want2[i] {
			t.Errorf("vertex slot %d: fused samples (%d, %d) != direct (%d, %d)",
				i, got[0][i], got[1][i], want1[i], want2[i])
		}
	}
}

// TestRequestErrorIsolation checks that a request whose own merge fails gets
// its error while an innocent fused partner completes normally.
func TestRequestErrorIsolation(t *testing.T) {
	edges := edgesN(9000)
	m := len(edges)
	s := sched.New(stream.FromEdges(edges), m, 1)
	cGood, cBad := s.NewClient(), s.NewClient()

	wantErr := errors.New("merge exploded")
	var wg sync.WaitGroup
	var goodTotal int
	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer cGood.Done()
		process, merge := countingPass(&goodTotal)
		goodErr = cGood.RunPass(process, merge)
	}()
	go func() {
		defer wg.Done()
		defer cBad.Done()
		badErr = cBad.RunPass(
			func(int, []graph.Edge) error { return nil },
			func(shard int) error {
				if shard == 0 {
					return wantErr
				}
				return nil
			})
	}()
	wg.Wait()

	if goodErr != nil || goodTotal != m {
		t.Errorf("innocent client: err=%v total=%d (want nil, %d)", goodErr, goodTotal, m)
	}
	if !errors.Is(badErr, wantErr) {
		t.Errorf("failing client got %v, want %v", badErr, wantErr)
	}
}

// TestStreamErrorFailsEveryone checks that an engine-level failure (broken
// stream) reaches every fused request.
func TestStreamErrorFailsEveryone(t *testing.T) {
	s := sched.New(stream.OpenFile("/definitely/not/here"), 100, 1)
	c1, c2 := s.NewClient(), s.NewClient()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, c := range []*sched.Client{c1, c2} {
		wg.Add(1)
		go func(i int, c *sched.Client) {
			defer wg.Done()
			defer c.Done()
			errs[i] = c.RunPass(
				func(int, []graph.Edge) error { return nil },
				func(int) error { return nil })
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("client %d: expected a stream error", i)
		}
	}
}

// TestForkReleasesBarrier checks that a forking client does not hold back
// its peers' waves, nor its own children's, and can resume passes
// afterwards.
func TestForkReleasesBarrier(t *testing.T) {
	edges := edgesN(9000)
	m := len(edges)
	s := sched.New(stream.FromEdges(edges), m, 1)
	worker := s.NewClient()
	forker := s.NewClient()

	done := make(chan error, 1)
	go func() {
		defer worker.Done()
		total := 0
		process, merge := countingPass(&total)
		err := worker.RunPass(process, merge)
		if err == nil && total != m {
			err = fmt.Errorf("saw %d edges, want %d", total, m)
		}
		done <- err
	}()
	// Were the forker still counted, the child's pass and the worker's would
	// wait forever for it.
	forker.Fork(1, func(_ int, kid *sched.Client) {
		total := 0
		process, merge := countingPass(&total)
		if err := kid.RunPass(process, merge); err != nil || total != m {
			t.Errorf("child pass: %v, saw %d edges, want %d", err, total, m)
		}
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The forker comes back and runs passes of its own.
	total := 0
	process, merge := countingPass(&total)
	if err := forker.RunPass(process, merge); err != nil {
		t.Fatal(err)
	}
	if total != m {
		t.Fatalf("resumed client saw %d edges, want %d", total, m)
	}
	forker.Done()
	if s.Scans() != 2 || s.Live() != 0 {
		t.Fatalf("scans = %d, live = %d, want 2 and 0", s.Scans(), s.Live())
	}
}

// TestGroupMeterPeak checks the concurrent space accounting: two meters
// under the scheduler's group meter overlapping in time peak at their sum.
func TestGroupMeterPeak(t *testing.T) {
	s := sched.New(stream.FromEdges(edgesN(100)), 100, 1)
	m1, m2 := stream.NewSharedMeter(s.Meter()), stream.NewSharedMeter(s.Meter())
	m1.Charge(700)
	m2.Charge(500)
	m1.Release(700)
	m2.Release(500)
	if peak := s.Meter().Peak(); peak != 1200 {
		t.Fatalf("group peak = %d, want 1200 (concurrent charges add)", peak)
	}
	if cur := s.Meter().Current(); cur != 0 {
		t.Fatalf("group current = %d, want 0", cur)
	}
}
