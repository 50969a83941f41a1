package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"degentri/internal/clique"
	"degentri/internal/passes"
	"degentri/internal/stream"
	"degentri/triangle"
)

// TestChaosLoad is the daemon's acceptance gate: ≥1000 concurrent mixed
// queries — clean estimates, injected faults, dead-on-arrival deadlines,
// tiny and over-ceiling budgets, degeneracy and clique calls — against two
// graphs, while liveness is polled throughout. Afterwards:
//
//   - every over-ceiling request was refused (503 budget), and a request at
//     exactly the ceiling is admitted once the daemon is idle;
//   - every clean complete response is bit-identical to the library run
//     with the same (seed, budget), including fault-injected requests whose
//     faults healed under retry (healed scans are bit-identical);
//   - every degeneracy response agrees (the peel is deterministic);
//   - the hot graph's physical scans stay well below one scan per request
//     (pass fusion is actually happening under load);
//   - the goroutine census returns to the baseline (nothing leaked);
//   - the daemon was live (200 /healthz) at every poll.
func TestChaosLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	hotPath := filepath.Join(dir, "hot.txt")
	coldPath := filepath.Join(dir, "cold.txt")
	writeGraph(t, hotPath, 1200, 4, 21)
	writeGraph(t, coldPath, 900, 4, 22)

	const (
		totalQueries  = 1100
		defaultBudget = int64(1 << 22)
		ceiling       = int64(1 << 26)
	)
	seeds := []uint64{1, 7, 42, 99, 1001, 31337}

	// Library ground truth for the clean-comparison seeds, same options the
	// server applies for requests that declare nothing but a seed.
	wantHot := make(map[uint64]float64, len(seeds))
	wantCold := make(map[uint64]float64, len(seeds))
	for _, seed := range seeds {
		res, err := triangle.EstimateFile(hotPath, triangle.Options{Seed: seed, MaxSpaceWords: defaultBudget})
		if err != nil {
			t.Fatal(err)
		}
		wantHot[seed] = res.Estimate
		res, err = triangle.EstimateFile(coldPath, triangle.Options{Seed: seed, MaxSpaceWords: defaultBudget})
		if err != nil {
			t.Fatal(err)
		}
		wantCold[seed] = res.Estimate
	}
	// Clique ground truth with a pinned κ (so the reference does not depend
	// on the group's shared κ̂): unfused execution of the identical config.
	const cliqueK, cliqueKappa, cliqueGuess, cliqueSeed = 4, 12, 50, 5
	ccfg := clique.DefaultConfig(cliqueK, 0.1, cliqueKappa, cliqueGuess)
	ccfg.Seed = cliqueSeed
	fs, err := stream.OpenAuto(hotPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := stream.CountEdges(fs)
	if err != nil {
		t.Fatal(err)
	}
	cref, err := clique.EstimateOn(passes.NewDirect(fs, m, 0), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()

	s, err := New(Config{
		Graphs:            map[string]string{"hot": hotPath, "cold": coldPath},
		QueueDepth:        totalQueries + 100, // chaos measures fusion, not shedding
		SpaceCeilingWords: ceiling,
		AllowInject:       true,
		// All queries launch at once and funnel through the slot pool; under
		// the race detector a queued request can wait minutes. Deadlines
		// under test are the explicit per-request ones (the doa flavor), not
		// the server default.
		DefaultTimeout: 4 * time.Minute,
		MaxTimeout:     5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	defer client.CloseIdleConnections()

	// Liveness poller: /healthz must answer 200 for the whole run.
	stopHealth := make(chan struct{})
	var healthFailures atomic.Int64
	var healthWG sync.WaitGroup
	healthWG.Add(1)
	go func() {
		defer healthWG.Done()
		for {
			select {
			case <-stopHealth:
				return
			case <-time.After(25 * time.Millisecond):
				resp, err := client.Get(ts.URL + "/healthz")
				if err != nil || resp.StatusCode != http.StatusOK {
					healthFailures.Add(1)
				}
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	type outcome struct {
		kind     string // query flavor
		status   int
		estimate float64
		partial  bool
		aborted  bool
		seed     uint64
		graph    string
		errKind  string
	}
	outcomes := make([]outcome, totalQueries)
	var wg sync.WaitGroup
	for i := 0; i < totalQueries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)*2654435761 + 17))
			o := &outcomes[i]
			o.seed = seeds[rng.Intn(len(seeds))]
			o.graph = "hot"
			if rng.Intn(10) < 3 {
				o.graph = "cold"
			}
			var url string
			roll := rng.Intn(100)
			switch {
			case roll < 55: // clean estimate, compare bits
				o.kind = "clean"
				url = fmt.Sprintf("%s/estimate?graph=%s&seed=%d", ts.URL, o.graph, o.seed)
			case roll < 70: // injected transient faults, heal under retry
				o.kind = "injected"
				url = fmt.Sprintf("%s/estimate?graph=%s&seed=%d&inject=%s", ts.URL, o.graph, o.seed,
					neturl.QueryEscape(fmt.Sprintf("seed=%d,every=3,max=4,kinds=eio+reset", i)))
			case roll < 80: // dead-on-arrival deadline
				o.kind = "doa"
				url = fmt.Sprintf("%s/estimate?graph=%s&seed=%d&timeout=1ns", ts.URL, o.graph, o.seed)
			case roll < 85: // tiny budget: 200 aborted via the library cutoff
				o.kind = "tiny-budget"
				url = fmt.Sprintf("%s/estimate?graph=%s&seed=%d&budget=8", ts.URL, o.graph, o.seed)
			case roll < 90: // budget above the ceiling: never admitted, 503
				o.kind = "huge-budget"
				url = fmt.Sprintf("%s/estimate?graph=%s&seed=%d&budget=%d", ts.URL, o.graph, o.seed, ceiling+1)
			case roll < 97: // degeneracy: deterministic, all must agree
				o.kind = "degeneracy"
				url = fmt.Sprintf("%s/degeneracy?graph=%s", ts.URL, o.graph)
			default: // cliques with pinned κ: compare against unfused run
				o.kind = "cliques"
				o.graph = "hot"
				url = fmt.Sprintf("%s/cliques?graph=hot&k=%d&kappa=%d&guess=%d&seed=%d",
					ts.URL, cliqueK, cliqueKappa, cliqueGuess, cliqueSeed)
			}
			var body struct {
				Estimate float64 `json:"estimate"`
				Kappa    int     `json:"kappa"`
				Partial  bool    `json:"partial"`
				Aborted  bool    `json:"aborted"`
				Kind     string  `json:"kind"`
				Error    string  `json:"error"`
			}
			o.status = get(t, client, url, &body)
			o.estimate = body.Estimate
			if o.kind == "degeneracy" {
				o.estimate = float64(body.Kappa)
			}
			o.partial, o.aborted = body.Partial, body.Aborted
			if body.Error != "" {
				o.errKind = body.Kind
			}
		}(i)
	}
	wg.Wait()
	close(stopHealth)
	healthWG.Wait()

	if n := healthFailures.Load(); n > 0 {
		t.Errorf("healthz failed %d polls during the chaos run", n)
	}

	// Verify every outcome against its flavor's contract.
	counts := map[string]int{}
	kappaSeen := map[string]float64{}
	for i := range outcomes {
		o := &outcomes[i]
		counts[o.kind+":"+fmt.Sprint(o.status)]++
		switch o.kind {
		case "clean":
			if o.status != http.StatusOK {
				t.Errorf("query %d (clean %s seed %d): status %d (%s)", i, o.graph, o.seed, o.status, o.errKind)
				continue
			}
			want := wantHot[o.seed]
			if o.graph == "cold" {
				want = wantCold[o.seed]
			}
			if o.partial || o.aborted || o.estimate != want {
				t.Errorf("query %d (clean %s seed %d): estimate %v partial=%v aborted=%v, want exactly %v",
					i, o.graph, o.seed, o.estimate, o.partial, o.aborted, want)
			}
		case "injected":
			// Healed runs must be bit-identical; exhausted retry budgets may
			// surface as 502. Nothing else is acceptable.
			switch o.status {
			case http.StatusOK:
				want := wantHot[o.seed]
				if o.graph == "cold" {
					want = wantCold[o.seed]
				}
				if !o.partial && !o.aborted && o.estimate != want {
					t.Errorf("query %d (injected %s seed %d): healed estimate %v != library %v",
						i, o.graph, o.seed, o.estimate, want)
				}
			case http.StatusBadGateway:
				// retry budget out-faulted
			default:
				t.Errorf("query %d (injected): status %d (%s)", i, o.status, o.errKind)
			}
		case "doa":
			if o.status != http.StatusGatewayTimeout {
				t.Errorf("query %d (doa): status %d (%s), want 504", i, o.status, o.errKind)
			}
		case "tiny-budget":
			if o.status != http.StatusOK || !o.aborted {
				t.Errorf("query %d (tiny-budget): status %d aborted=%v, want 200 aborted", i, o.status, o.aborted)
			}
		case "huge-budget":
			if o.status != http.StatusServiceUnavailable || o.errKind != "budget" {
				t.Errorf("query %d (huge-budget): status %d (%s), want 503 budget", i, o.status, o.errKind)
			}
		case "degeneracy":
			if o.status != http.StatusOK {
				t.Errorf("query %d (degeneracy %s): status %d (%s)", i, o.graph, o.status, o.errKind)
				continue
			}
			if prev, ok := kappaSeen[o.graph]; ok && prev != o.estimate {
				t.Errorf("query %d: degeneracy of %s = %v, earlier response said %v", i, o.graph, o.estimate, prev)
			}
			kappaSeen[o.graph] = o.estimate
		case "cliques":
			if o.status != http.StatusOK || o.estimate != cref.Estimate {
				t.Errorf("query %d (cliques): status %d estimate %v, want 200 with %v", i, o.status, o.estimate, cref.Estimate)
			}
		}
	}
	t.Logf("outcome counts: %v", counts)

	// A budget of exactly the ceiling is admitted once the ledger is empty.
	// (Sent during the mix, it would hold the whole ceiling while it ran and
	// turn every request arriving meanwhile into a 503.)
	var whole struct {
		Estimate float64 `json:"estimate"`
		Partial  bool    `json:"partial"`
		Aborted  bool    `json:"aborted"`
	}
	status := get(t, client, fmt.Sprintf("%s/estimate?graph=hot&seed=%d&budget=%d", ts.URL, seeds[0], ceiling), &whole)
	if status != http.StatusOK || whole.Partial || whole.Aborted || whole.Estimate != wantHot[seeds[0]] {
		t.Errorf("budget at the ceiling on an idle daemon: status %d estimate %v partial=%v aborted=%v, want 200 with %v",
			status, whole.Estimate, whole.Partial, whole.Aborted, wantHot[seeds[0]])
	}

	// Fusion must have paid: the hot graph served hundreds of shared-path
	// requests; without fusion each costs several scans of its own.
	var graphs []graphStatus
	get(t, client, ts.URL+"/graphs", &graphs)
	sharedRequests := 0
	for i := range outcomes {
		o := &outcomes[i]
		if o.graph == "hot" && o.status == http.StatusOK && o.kind != "injected" {
			sharedRequests++
		}
	}
	for _, g := range graphs {
		if g.Name != "hot" {
			continue
		}
		t.Logf("hot graph: %d scans carried %d logical passes for %d shared requests (fused width %.1f)",
			g.Scans, g.Carried, sharedRequests, float64(g.Carried)/float64(g.Scans))
		// Unfused, every logical pass would be its own physical scan
		// (Carried ≈ N× solo scans). Require an average fused width above 2:
		// the scan count must be well below half the logical pass count.
		if g.Carried < 2*g.Scans {
			t.Errorf("hot graph: %d scans for %d logical passes (width %.2f ≤ 2) — fusion is not paying",
				g.Scans, g.Carried, float64(g.Carried)/float64(g.Scans))
		}
		if g.Live != 0 {
			t.Errorf("hot graph: %d live clients after the run", g.Live)
		}
	}

	// Clean shutdown and census: nothing may leak across 1100 requests.
	if !s.Drain(30 * time.Second) {
		t.Error("drain after chaos was not clean")
	}
	ts.Close()
	client.CloseIdleConnections()
	waitCensus(t, baseline)
}
