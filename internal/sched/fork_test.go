package sched_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"degentri/internal/graph"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// exactPasses runs n counting passes on c and reports the first error or
// the first pass that did not see exactly m edges.
func exactPasses(t *testing.T, c *sched.Client, n, m int, who string) {
	t.Helper()
	for p := 0; p < n; p++ {
		total := 0
		process, merge := countingPass(&total)
		if err := c.RunPass(process, merge); err != nil {
			t.Errorf("%s pass %d: %v", who, p, err)
			return
		}
		if total != m {
			t.Errorf("%s pass %d saw %d edges, want %d", who, p, total, m)
			return
		}
	}
}

// gap is how long a parent computes between its children's last pass and
// its own next one: long enough for a wave to start if the parent were
// missing from the barrier.
const gap = 20 * time.Millisecond

// TestForkReadmitsParentBeforeNextWave pins the hand-off: the last child's
// Done puts the parent back into the wave barrier before any wave can
// start, so a peer's next pass waits for the parent's instead of scanning
// alone.
func TestForkReadmitsParentBeforeNextWave(t *testing.T) {
	edges := edgesN(20000)
	m := len(edges)
	for _, workers := range []int{1, 4} {
		s := sched.New(stream.FromEdges(edges), m, workers)
		parent, peer := s.NewClient(), s.NewClient()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer peer.Done()
			exactPasses(t, peer, 3, m, "peer")
		}()
		// Wave 1: both children and the peer. Wave 2: child 1 and the peer.
		parent.Fork(2, func(i int, kid *sched.Client) {
			exactPasses(t, kid, i+1, m, "child")
		})
		time.Sleep(gap)
		if got := s.Scans(); got != 2 {
			t.Errorf("workers=%d: %d scans while the parent computes after its fork, want 2 (the peer's third pass must wait)", workers, got)
		}
		// Wave 3: the parent and the peer's third pass.
		exactPasses(t, parent, 1, m, "parent")
		parent.Done()
		wg.Wait()
		if s.Scans() != 3 || s.Carried() != 7 || s.Live() != 0 {
			t.Errorf("workers=%d: scans %d, carried %d, live %d, want 3, 7 and 0", workers, s.Scans(), s.Carried(), s.Live())
		}
	}
}

// TestForkNested checks that a child can fork in turn: each level leaves the
// barrier while its children live and comes back before the next wave. It
// also pins the space-meter tree: a node's peak covers its subtree, the
// scheduler's meter holds every root's words until that root is Done, and
// a root's Done hands back its whole tree's words and nobody else's.
func TestForkNested(t *testing.T) {
	edges := edgesN(12000)
	m := len(edges)
	s := sched.New(stream.FromEdges(edges), m, 2)
	root := s.NewClient()

	var childMeter, grandchildren int64
	root.Fork(2, func(i int, kid *sched.Client) {
		if i == 1 {
			kid.Meter().Charge(20)
			exactPasses(t, kid, 2, m, "child 1")
			return
		}
		kid.Fork(2, func(j int, gk *sched.Client) {
			gk.Meter().Charge(int64(100 * (j + 1)))
			exactPasses(t, gk, 2, m, "grandchild")
		})
		childMeter, grandchildren = kid.Meter().Peak(), 300
		time.Sleep(gap)
		if got := s.Scans(); got != 2 {
			t.Errorf("%d scans while child 0 computes after its fork, want 2", got)
		}
		exactPasses(t, kid, 1, m, "child 0")
	})
	exactPasses(t, root, 1, m, "root")
	// Waves: {gk0, gk1, child 1} twice, then {child 0}, then {root}.
	if s.Scans() != 4 || s.Carried() != 8 {
		t.Errorf("scans %d, carried %d, want 4 and 8", s.Scans(), s.Carried())
	}
	if childMeter != grandchildren {
		t.Errorf("child 0's meter peaked at %d, want its grandchildren's %d", childMeter, grandchildren)
	}
	other := s.NewClient()
	other.Meter().Charge(1000)
	if got := root.Meter().Current(); got != 320 {
		t.Errorf("root meter holds %d words, want its tree's 320", got)
	}
	if got := s.Meter().Current(); got != 1320 {
		t.Errorf("scheduler meter holds %d words before the root is Done, want 1320", got)
	}
	root.Done()
	if got, peak := s.Meter().Current(), s.Meter().Peak(); got != 1000 || peak != 1320 {
		t.Errorf("after the root's Done the scheduler meter holds %d (peak %d), want the other root's 1000 (peak 1320)", got, peak)
	}
	other.Done()
	if got := s.Meter().Current(); got != 0 || s.Live() != 0 {
		t.Errorf("after every Done: meter %d, live %d, want 0 and 0", got, s.Live())
	}
}

// TestForkChildFailureLeavesParentAndPeersExact checks that a child whose
// pass fails, and a forked subtree whose context is cancelled mid-run, leave
// the barrier exact: peers and siblings see every edge, the parent resumes on
// the wave it would have ridden anyway, and Live drains to zero.
func TestForkChildFailureLeavesParentAndPeersExact(t *testing.T) {
	edges := edgesN(16000)
	m := len(edges)
	s := sched.New(stream.FromEdges(edges), m, 4)

	// A child fails its first pass and returns; its sibling and the peer
	// carry on, and the parent's own pass rides with the peer's third.
	parent, peer := s.NewClient(), s.NewClient()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer peer.Done()
		exactPasses(t, peer, 3, m, "peer")
	}()
	boom := errors.New("boom")
	parent.Fork(2, func(i int, kid *sched.Client) {
		if i == 0 {
			err := kid.RunPass(
				func(int, []graph.Edge) error { return boom },
				func(int) error { return nil })
			if !errors.Is(err, boom) {
				t.Errorf("failing child: got %v, want boom", err)
			}
			return
		}
		exactPasses(t, kid, 2, m, "sibling")
	})
	time.Sleep(gap)
	exactPasses(t, parent, 1, m, "parent")
	parent.Done()
	wg.Wait()
	if s.Scans() != 3 || s.Live() != 0 {
		t.Errorf("after a failed child: scans %d, live %d, want 3 and 0", s.Scans(), s.Live())
	}

	// A request's context fires while its children run: their remaining
	// passes fail, the peer's are exact, and the parent comes back from
	// Fork and finishes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	request, peer2 := s.NewClientCtx(ctx), s.NewClient()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer peer2.Done()
		exactPasses(t, peer2, 4, m, "peer")
	}()
	request.Fork(2, func(i int, kid *sched.Client) {
		exactPasses(t, kid, 1, m, "request child")
		if i == 0 {
			cancel()
		}
		total := 0
		process, merge := countingPass(&total)
		if err := kid.RunPass(process, merge); !errors.Is(err, context.Canceled) {
			t.Errorf("request child %d after cancel: got %v, want context.Canceled", i, err)
		}
	})
	request.Done()
	wg.Wait()
	if s.Live() != 0 {
		t.Errorf("after a cancelled subtree: live %d, want 0", s.Live())
	}
	// The scheduler stays usable.
	c := s.NewClient()
	exactPasses(t, c, 1, m, "fresh client")
	c.Done()
}
