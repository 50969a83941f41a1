package sched_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"degentri/internal/faultio"
	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// checksumPass returns a pass whose merged result depends on the exact
// per-shard content AND the merge order: any duplicated, lost, or reordered
// shard changes the hash. The reference value comes from running the same
// pass unfused over the clean stream.
func checksumPass(out *uint64) (func(int, []graph.Edge) error, func(int) error) {
	var perShard [stream.NumShards]uint64
	process := func(shard int, batch []graph.Edge) error {
		for _, e := range batch {
			perShard[shard] += uint64(e.U)*3 + uint64(e.V)
		}
		return nil
	}
	merge := func(shard int) error {
		*out = *out*31 + perShard[shard]
		perShard[shard] = 0
		return nil
	}
	return process, merge
}

func cleanChecksum(t *testing.T, edges []graph.Edge, passCount int) []uint64 {
	t.Helper()
	x := passes.NewDirect(stream.FromEdges(edges), len(edges), 4)
	want := make([]uint64, passCount)
	for p := 0; p < passCount; p++ {
		process, merge := checksumPass(&want[p])
		if err := x.RunPass(process, merge); err != nil {
			t.Fatalf("reference pass %d: %v", p, err)
		}
	}
	return want
}

// TestFusedClientsHealTransientFaults pins the tentpole acceptance property
// at the scheduler layer: a seed-keyed schedule of transient faults (mid-read
// EIO and failing Resets), healed by bounded retry, leaves every fused
// client's result bit-identical to an undisturbed unfused run — the faults
// show up only in Retries().
func TestFusedClientsHealTransientFaults(t *testing.T) {
	edges := make([]graph.Edge, 60000)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i % 211), V: int32(211 + i%197)}
	}
	m := len(edges)
	const clients, passesEach = 3, 4
	want := cleanChecksum(t, edges, passesEach)

	// MaxFaults=2 < the policy's 3 attempts, so no shard can exhaust its
	// retry budget even if both faults land on it back to back.
	plan := faultio.Plan{Seed: 42, Every: 2, MaxFaults: 2,
		Kinds: []faultio.Kind{faultio.KindEIO, faultio.KindFailReset}}
	faulty := faultio.New(stream.FromEdges(edges), plan)
	s := sched.NewCtx(context.Background(), faulty, m, 4, stream.DefaultRetryPolicy())

	cs := make([]*sched.Client, clients)
	for i := range cs {
		cs[i] = s.NewClient()
	}
	got := make([]uint64, clients*passesEach)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cs[i].Done()
			for p := 0; p < passesEach; p++ {
				process, merge := checksumPass(&got[i*passesEach+p])
				if err := cs[i].RunPass(process, merge); err != nil {
					t.Errorf("client %d pass %d: %v", i, p, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		for p := 0; p < passesEach; p++ {
			if got[i*passesEach+p] != want[p] {
				t.Errorf("client %d pass %d checksum %#x, want %#x (fault healing changed a result)",
					i, p, got[i*passesEach+p], want[p])
			}
		}
	}
	if faulty.Faults() == 0 {
		t.Fatal("the plan injected nothing; the test exercised no fault path")
	}
	if s.Retries() == 0 {
		t.Fatal("faults were injected but Retries() is zero")
	}
}

// TestFusedClientCtxCancelIsolated pins per-client cancellation: one client
// cancelling mid-wave is failed with its context's cause while every other
// client of the same wave completes, bit-identical to an unfused run.
func TestFusedClientCtxCancelIsolated(t *testing.T) {
	edges := make([]graph.Edge, 50000)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i % 149), V: int32(149 + i%139)}
	}
	m := len(edges)
	want := cleanChecksum(t, edges, 1)

	s := sched.New(stream.FromEdges(edges), m, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victim := s.NewClientCtx(ctx)
	bystander := s.NewClient()

	var wg sync.WaitGroup
	var victimErr, victimRetryErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer victim.Done()
		// The victim cancels its own context from inside the wave: the
		// scheduler must drop its request at the next shard boundary.
		process := func(shard int, batch []graph.Edge) error {
			cancel()
			return nil
		}
		merge := func(shard int) error { return nil }
		victimErr = victim.RunPass(process, merge)
		// Still cancelled: a further pass fast-fails without entering the
		// barrier.
		victimRetryErr = victim.RunPass(func(int, []graph.Edge) error { return nil }, func(int) error { return nil })
	}()

	var got uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer bystander.Done()
		process, merge := checksumPass(&got)
		if err := bystander.RunPass(process, merge); err != nil {
			t.Errorf("bystander pass: %v", err)
		}
	}()
	wg.Wait()

	if victimErr == nil {
		t.Fatal("cancelled client's pass returned nil")
	}
	if !errors.Is(victimErr, context.Canceled) {
		t.Fatalf("cancelled client's error = %v, want wrapped context.Canceled", victimErr)
	}
	if got != want[0] {
		t.Fatalf("bystander checksum %#x, want %#x (peer cancellation changed its result)", got, want[0])
	}
	if !errors.Is(victimRetryErr, context.Canceled) {
		t.Fatalf("post-cancel pass error = %v, want wrapped context.Canceled", victimRetryErr)
	}

	// The scheduler keeps serving new clients after a client cancelled.
	var again uint64
	process, merge := checksumPass(&again)
	fresh := s.NewClient()
	defer fresh.Done()
	if err := fresh.RunPass(process, merge); err != nil {
		t.Fatalf("scheduler unusable after a client cancelled: %v", err)
	}
	if again != want[0] {
		t.Fatalf("post-cancel checksum %#x, want %#x", again, want[0])
	}
}

// TestTruncationFailsWaveCleanly pins the non-transient failure path: a
// silent mid-scan truncation is detected by the engine's edge accounting,
// every live client of the wave gets an error wrapping stream.ErrTruncated
// (nobody hangs), and the scheduler serves later waves normally once the
// fault schedule is spent.
func TestTruncationFailsWaveCleanly(t *testing.T) {
	edges := make([]graph.Edge, 30000)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i % 101), V: int32(101 + i%97)}
	}
	m := len(edges)
	want := cleanChecksum(t, edges, 1)

	plan := faultio.Plan{Seed: 13, Every: 1, MaxFaults: 1, Kinds: []faultio.Kind{faultio.KindTruncate}}
	faulty := faultio.New(stream.FromEdges(edges), plan)
	s := sched.NewCtx(context.Background(), faulty, m, 4, stream.DefaultRetryPolicy())

	const clients = 2
	cs := make([]*sched.Client, clients)
	for i := range cs {
		cs[i] = s.NewClient()
	}
	firstErrs := make([]error, clients)
	sums := make([]uint64, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer cs[i].Done()
			process, merge := checksumPass(&sums[i])
			firstErrs[i] = cs[i].RunPass(process, merge)
			if firstErrs[i] == nil {
				return
			}
			// Second pass: the single-shot truncation is spent, the wave
			// completes, and the result matches the clean reference.
			sums[i] = 0
			process, merge = checksumPass(&sums[i])
			if err := cs[i].RunPass(process, merge); err != nil {
				t.Errorf("client %d recovery pass: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	for i, err := range firstErrs {
		if err == nil {
			t.Fatalf("client %d did not see the truncation error", i)
		}
		if !errors.Is(err, stream.ErrTruncated) {
			t.Fatalf("client %d error = %v, want wrapped stream.ErrTruncated", i, err)
		}
		if sums[i] != want[0] {
			t.Errorf("client %d recovery checksum %#x, want %#x", i, sums[i], want[0])
		}
	}
}
