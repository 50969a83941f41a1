package sched_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"degentri/internal/sched"
	"degentri/internal/stream"
)

// TestClientChurnDuringLiveWaves drives the scheduler the way a long-lived
// daemon does: clients register, run passes, fork children, abandon
// (per-client context cancellation), and finish at uncorrelated times, so
// registration and cancellation land *while waves are in flight* rather than
// at the tidy group boundaries the estimator entry points produce. The
// properties pinned:
//
//   - no client is ever stranded: every surviving pass completes and sees
//     exactly m edges, bit-exact, no matter what its fused peers did;
//   - an abandoned client fails cleanly (its own passes error, nobody
//     else's do) and its Done never wedges the barrier;
//   - the scheduler quiesces: Live() drains to zero and no wave goroutine
//     outlives the churn (goroutine census);
//   - the scheduler stays usable afterwards — a fresh client runs to
//     completion on the same instance.
//
// The test is deliberately time-jittered (seeded, but sleeps interleave with
// the wave machinery differently on every run) and relies on the race
// detector in CI to catch unsynchronized state; correctness assertions never
// depend on the interleaving.
func TestClientChurnDuringLiveWaves(t *testing.T) {
	edges := edgesN(30000)
	m := len(edges)
	s := sched.New(stream.FromEdges(edges), m, 4)

	baseline := runtime.NumGoroutine()

	const nClients = 48
	var wg sync.WaitGroup
	var mu sync.Mutex
	completed := 0 // passes that returned nil and delivered exactly m edges

	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			// Stagger registration so it lands mid-wave for most clients.
			time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := s.NewClientCtx(ctx)
			defer c.Done()

			fate := i % 4
			if fate == 1 {
				// Abandoner: the cancel fires from another goroutine at an
				// arbitrary point — before, during, or after a wave.
				delay := time.Duration(rng.Intn(3000)) * time.Microsecond
				go func() {
					time.Sleep(delay)
					cancel()
				}()
			}
			nPasses := 1 + rng.Intn(6)
			for p := 0; p < nPasses; p++ {
				if fate == 3 && p == nPasses/2 {
					// Forker: hand control to children mid-sequence (what a
					// search does with a batch of probes); the children's
					// passes are exact, and the parent resumes afterwards.
					kidPasses := []int{1 + rng.Intn(3), 1 + rng.Intn(3)}
					delay := time.Duration(rng.Intn(1500)) * time.Microsecond
					c.Fork(len(kidPasses), func(k int, kid *sched.Client) {
						time.Sleep(delay)
						for q := 0; q < kidPasses[k]; q++ {
							total := 0
							process, merge := countingPass(&total)
							if err := kid.RunPass(process, merge); err != nil || total != m {
								t.Errorf("client %d child %d pass %d: %v, saw %d edges, want %d", i, k, q, err, total, m)
								return
							}
							mu.Lock()
							completed++
							mu.Unlock()
						}
					})
				}
				total := 0
				process, merge := countingPass(&total)
				err := c.RunPass(process, merge)
				if fate == 1 {
					if err != nil {
						return // abandoned, as intended
					}
				} else if err != nil {
					t.Errorf("client %d (fate %d) pass %d: %v", i, fate, p, err)
					return
				}
				if total != m {
					t.Errorf("client %d pass %d saw %d edges, want %d", i, p, total, m)
					return
				}
				mu.Lock()
				completed++
				mu.Unlock()
				if fate == 2 && p >= nPasses/2 {
					return // early finisher: Done mid-group via the defer
				}
			}
		}(i)
	}

	quiesced := make(chan struct{})
	go func() { wg.Wait(); close(quiesced) }()
	select {
	case <-quiesced:
	case <-time.After(60 * time.Second):
		t.Fatal("churn did not quiesce: a client is stranded in RunPass")
	}

	if live := s.Live(); live != 0 {
		t.Fatalf("Live() = %d after every client finished, want 0", live)
	}
	if completed == 0 {
		t.Fatal("no pass completed; the test exercised nothing")
	}
	if s.Carried() < completed {
		t.Fatalf("Carried() = %d < %d completed passes", s.Carried(), completed)
	}
	if s.Scans() > s.Carried() {
		t.Fatalf("Scans() = %d > Carried() = %d: a wave carried no request", s.Scans(), s.Carried())
	}

	// The scheduler survived the churn: a fresh client still runs clean.
	c := s.NewClient()
	total := 0
	process, merge := countingPass(&total)
	if err := c.RunPass(process, merge); err != nil {
		t.Fatalf("post-churn pass: %v", err)
	}
	c.Done()
	if total != m {
		t.Fatalf("post-churn pass saw %d edges, want %d", total, m)
	}

	// No parked goroutine outlives the churn (wave goroutines exit once
	// delivered; give epilogues a moment).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d at baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
