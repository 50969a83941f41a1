package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"degentri/internal/gen"
	"degentri/internal/stream"
	"degentri/triangle"
)

// writeGraph generates a Holme–Kim graph file for serving.
func writeGraph(t *testing.T, path string, n, deg int, seed uint64) {
	t.Helper()
	gr := gen.HolmeKim(n, deg, 0.5, seed)
	if err := stream.WriteGraphFile(path, gr, "server test"); err != nil {
		t.Fatal(err)
	}
}

// get issues one request and decodes the JSON body into out (which may be
// nil to ignore the body). It returns the HTTP status.
func get(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// waitCensus asserts the goroutine count returns to the baseline (small
// tolerance for runtime background goroutines) within a deadline.
func waitCensus(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine census %d never returned to baseline %d; stacks:\n%s", n, baseline, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPartialEndToEnd pins the satellite requirement: a request deadline
// firing mid-search comes back over HTTP as a 200 with partial=true and the
// best completed probe's estimate — never a zero estimate, never a 500. The
// ladder injects a per-pass stall so the full search takes much longer than
// the early probes, then walks timeouts across that window; at least one
// rung must land in the middle.
func TestPartialEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	writeGraph(t, path, 2000, 5, 7)

	s, err := New(Config{
		Graphs:      map[string]string{"g": path},
		AllowInject: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// A 1ns deadline is dead on arrival: 504 with the deadline kind, no
	// estimate payload.
	var eresp errorResponse
	if code := get(t, client, ts.URL+"/estimate?graph=g&seed=1&timeout=1ns", &eresp); code != http.StatusGatewayTimeout {
		t.Fatalf("dead-on-arrival request: status %d (%+v), want 504", code, eresp)
	}
	if eresp.Kind != "deadline" {
		t.Fatalf("dead-on-arrival kind = %q, want deadline", eresp.Kind)
	}

	// Stall ladder: every pass sleeps 25ms, so a full search costs hundreds
	// of ms while the first probes complete quickly.
	const inject = "seed=5,every=1,kinds=stall,stall=25ms"
	ladder := []string{"120ms", "250ms", "450ms", "800ms", "1500ms", "3s", "10s"}
	partials, completes := 0, 0
	for _, timeout := range ladder {
		var resp estimateResponse
		url := fmt.Sprintf("%s/estimate?graph=g&seed=9&inject=%s&timeout=%s", ts.URL, inject, timeout)
		code := get(t, client, url, &resp)
		switch code {
		case http.StatusOK:
			if resp.Estimate <= 0 {
				t.Errorf("timeout=%s: 200 with estimate %v (partial=%v) — a served result must carry a usable estimate", timeout, resp.Estimate, resp.Partial)
			}
			if resp.Partial {
				partials++
			} else {
				completes++
			}
		case http.StatusGatewayTimeout:
			// Deadline before the first usable probe: legitimate for the
			// shortest rungs.
		default:
			t.Errorf("timeout=%s: unexpected status %d", timeout, code)
		}
	}
	if partials == 0 {
		t.Errorf("no rung of the timeout ladder returned a partial result (completes=%d); the mid-search degradation path never fired", completes)
	}
	if completes == 0 {
		t.Errorf("no rung completed; the generous rungs should finish the search")
	}
}

// TestBreakerQuarantineAndRecovery exercises the full quarantine lifecycle
// over HTTP: a graph that starts healthy, is corrupted underneath its warm
// group (truncated in place), fails requests with I/O errors until the
// breaker trips, rejects instantly while quarantined, and recovers through
// a half-open probe after the file is restored and the backoff elapses.
func TestBreakerQuarantineAndRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	writeGraph(t, path, 800, 4, 3)
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	clk := &fakeClock{t: time.Unix(5000, 0)}
	s, err := New(Config{
		Graphs:           map[string]string{"g": path},
		BreakerThreshold: 2,
		BreakerBackoff:   time.Minute,
		now:              clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	var healthy estimateResponse
	if code := get(t, client, ts.URL+"/estimate?graph=g&seed=1", &healthy); code != http.StatusOK {
		t.Fatalf("healthy request: status %d, want 200", code)
	}

	// Corrupt the file under the warm group: scans now come up short.
	if err := os.Truncate(path, int64(len(content)/2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var eresp errorResponse
		code := get(t, client, ts.URL+"/estimate?graph=g&seed=2", &eresp)
		if code != http.StatusBadGateway || eresp.Kind != "io" {
			t.Fatalf("request %d against truncated file: status %d kind %q, want 502 io (%s)", i, code, eresp.Kind, eresp.Error)
		}
	}
	// Threshold reached: the graph is quarantined and rejects without I/O.
	var eresp errorResponse
	if code := get(t, client, ts.URL+"/estimate?graph=g&seed=3", &eresp); code != http.StatusServiceUnavailable || eresp.Kind != "quarantined" {
		t.Fatalf("quarantined request: status %d kind %q, want 503 quarantined", code, eresp.Kind)
	}
	var graphs []graphStatus
	get(t, client, ts.URL+"/graphs", &graphs)
	if len(graphs) != 1 || graphs[0].State != "quarantined" || graphs[0].Breaker != "open" {
		t.Fatalf("/graphs during quarantine = %+v", graphs)
	}

	// Restore the file; before the backoff elapses the breaker still rejects.
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := get(t, client, ts.URL+"/estimate?graph=g&seed=4", &eresp); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-backoff request: status %d, want 503", code)
	}
	// After the backoff the next request is the probe: it rebuilds the group
	// and must reproduce the original estimate bit-for-bit.
	clk.advance(61 * time.Second)
	var recovered estimateResponse
	if code := get(t, client, ts.URL+"/estimate?graph=g&seed=1", &recovered); code != http.StatusOK {
		t.Fatalf("probe request after restore: status %d, want 200", code)
	}
	if recovered.Estimate != healthy.Estimate {
		t.Errorf("recovered estimate %v != pre-quarantine %v", recovered.Estimate, healthy.Estimate)
	}
	get(t, client, ts.URL+"/graphs", &graphs)
	if graphs[0].Breaker != "closed" || graphs[0].State != "ready" {
		t.Fatalf("/graphs after recovery = %+v", graphs)
	}
}

// TestBudgetRejectionOverHTTP pins the admission ledger's HTTP face: a
// declared budget that cannot fit under the ceiling is refused with 503 and
// a Retry-After, while a modest budget on the same server is served.
func TestBudgetRejectionOverHTTP(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	writeGraph(t, path, 600, 4, 5)
	s, err := New(Config{
		Graphs:            map[string]string{"g": path},
		SpaceCeilingWords: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var eresp errorResponse
	code := get(t, ts.Client(), ts.URL+"/estimate?graph=g&seed=1&budget=2097152", &eresp)
	if code != http.StatusServiceUnavailable || eresp.Kind != "budget" {
		t.Fatalf("over-ceiling budget: status %d kind %q, want 503 budget", code, eresp.Kind)
	}
	var resp estimateResponse
	if code := get(t, ts.Client(), ts.URL+"/estimate?graph=g&seed=1&budget=524288", &resp); code != http.StatusOK || resp.Estimate <= 0 {
		t.Fatalf("fitting budget: status %d estimate %v, want 200 with a positive estimate", code, resp.Estimate)
	}
	// A tiny budget is admitted (the ledger is about aggregate capacity) and
	// comes back as a 200 flagged aborted — the library's budget cutoff.
	if code := get(t, ts.Client(), ts.URL+"/estimate?graph=g&seed=1&budget=8", &resp); code != http.StatusOK || !resp.Aborted {
		t.Fatalf("tiny budget: status %d aborted=%v, want 200 aborted", code, resp.Aborted)
	}
}

// TestDrain pins the shutdown protocol: once draining, readiness flips and
// new requests are refused with the draining kind, in-flight requests finish
// inside the grace period, and the drain reports clean.
func TestDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	writeGraph(t, path, 1500, 5, 9)
	s, err := New(Config{
		Graphs:      map[string]string{"g": path},
		AllowInject: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	if code := get(t, client, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}

	// Park a slow request in flight (per-pass stalls), then drain under it.
	inflight := make(chan int, 1)
	var inflightResp estimateResponse
	go func() {
		url := ts.URL + "/estimate?graph=g&seed=2&inject=seed=3,every=1,kinds=stall,stall=20ms&timeout=30s"
		inflight <- get(t, client, url, &inflightResp)
	}()
	for i := 0; s.inflightN.Load() == 0; i++ {
		if i > 2000 {
			t.Fatal("background request never started")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(20 * time.Second) }()
	for i := 0; !s.draining.Load(); i++ {
		time.Sleep(time.Millisecond)
	}

	if code := get(t, client, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", code)
	}
	if code := get(t, client, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200 (liveness is not readiness)", code)
	}
	var eresp errorResponse
	if code := get(t, client, ts.URL+"/estimate?graph=g&seed=1", &eresp); code != http.StatusServiceUnavailable || eresp.Kind != "draining" {
		t.Fatalf("new request during drain: status %d kind %q, want 503 draining", code, eresp.Kind)
	}

	if code := <-inflight; code != http.StatusOK || inflightResp.Estimate <= 0 {
		t.Fatalf("in-flight request during drain: status %d estimate %v, want 200 with estimate", code, inflightResp.Estimate)
	}
	if clean := <-drained; !clean {
		t.Error("drain reported dirty despite the in-flight request finishing in grace")
	}
	if n := s.inflightN.Load(); n != 0 {
		t.Fatalf("inflight = %d after drain", n)
	}
	ts.Close()
	client.CloseIdleConnections()
	waitCensus(t, baseline)
}

// TestDrainHardDeadline pins the other half of the protocol: an in-flight
// request that cannot finish inside the grace period is hard-cancelled (the
// scheduler lifetime dies) instead of blocking shutdown forever.
func TestDrainHardDeadline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	writeGraph(t, path, 1500, 5, 11)
	s, err := New(Config{
		Graphs:      map[string]string{"g": path},
		AllowInject: true,
		MaxTimeout:  5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		// Heavy stalls: this cannot finish in the 50ms grace below.
		url := ts.URL + "/estimate?graph=g&seed=2&inject=seed=3,every=1,kinds=stall,stall=300ms&timeout=4m"
		done <- get(t, ts.Client(), url, nil)
	}()
	for i := 0; s.inflightN.Load() == 0; i++ {
		if i > 2000 {
			t.Fatal("background request never started")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	clean := s.Drain(50 * time.Millisecond)
	if clean {
		t.Error("drain reported clean despite hard-cancelling a straggler")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v; the hard deadline did not bound it", elapsed)
	}
	select {
	case <-done:
		// The straggler observed the cancellation and returned some status;
		// which one depends on where the abort landed (504, partial 200).
	case <-time.After(10 * time.Second):
		t.Fatal("straggling request never returned after hard cancel")
	}
}

// TestConcurrentRequestsShareScans is the HTTP-level fusion pin: N
// concurrent same-graph requests leave the group with far fewer physical
// scans than N standalone runs would have paid, with every response
// bit-identical to the library.
func TestConcurrentRequestsShareScans(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	writeGraph(t, path, 3000, 5, 13)

	seeds := []uint64{1, 7, 42, 99, 1001, 31337}
	want := make(map[uint64]triangle.Result, len(seeds))
	soloScans := 0
	for _, seed := range seeds {
		res, err := triangle.EstimateFile(path, triangle.Options{Seed: seed, MaxSpaceWords: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res
		soloScans += res.Scans
	}

	s, err := New(Config{Graphs: map[string]string{"g": path}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	responses := make([]estimateResponse, len(seeds))
	codes := make([]int, len(seeds))
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			url := fmt.Sprintf("%s/estimate?graph=g&seed=%d", ts.URL, seed)
			codes[i] = get(t, ts.Client(), url, &responses[i])
		}(i, seed)
	}
	wg.Wait()
	for i, seed := range seeds {
		if codes[i] != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, codes[i])
		}
		if responses[i].Estimate != want[seed].Estimate {
			t.Errorf("seed %d: served estimate %v != library %v", seed, responses[i].Estimate, want[seed].Estimate)
		}
		if !responses[i].Fused {
			t.Errorf("seed %d: response not flagged fused", seed)
		}
	}
	var graphs []graphStatus
	get(t, ts.Client(), ts.URL+"/graphs", &graphs)
	if graphs[0].Scans >= soloScans {
		t.Errorf("group scans %d not below the %d scans of %d standalone runs", graphs[0].Scans, soloScans, len(seeds))
	}
	if graphs[0].Live != 0 {
		t.Errorf("live clients = %d after all requests returned", graphs[0].Live)
	}
}

// TestDecodeEngineSurface pins the operator-visible decode engine: a v2
// graph served with the decoded-block cache reports the decorated backend
// ("bex2/<kernel>+cache") in /graphs, /metrics exposes the cache counters,
// and repeat queries against the warm group actually hit the cache. A daemon
// configured with the cache disabled drops the "+cache" suffix.
func TestDecodeEngineSurface(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	writeGraph(t, txt, 1500, 5, 11)
	src := stream.OpenFile(txt)
	path := filepath.Join(dir, "g.bex")
	if _, err := stream.WriteBex2File(path, src, 0); err != nil {
		t.Fatal(err)
	}
	src.Close()

	s, err := New(Config{Graphs: map[string]string{"g": path}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var first, second estimateResponse
	if code := get(t, ts.Client(), ts.URL+"/estimate?graph=g&seed=3", &first); code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	before := stream.ReadDecodeCacheStats()
	if code := get(t, ts.Client(), ts.URL+"/estimate?graph=g&seed=3", &second); code != http.StatusOK {
		t.Fatalf("repeat estimate: status %d", code)
	}
	if first.Estimate != second.Estimate {
		t.Fatalf("repeat estimate %v != first %v (cache changed the result)", second.Estimate, first.Estimate)
	}
	after := stream.ReadDecodeCacheStats()
	if after.Hits == before.Hits {
		t.Errorf("repeat query against the warm group recorded no cache hits")
	}

	var graphs []graphStatus
	get(t, ts.Client(), ts.URL+"/graphs", &graphs)
	want := stream.DescribeBackend(stream.BackendBex2, true)
	if graphs[0].Backend != want {
		t.Errorf("backend = %q, want %q", graphs[0].Backend, want)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"triangled_decode_cache_hits_total",
		"triangled_decode_cache_misses_total",
		"triangled_decode_cache_evictions_total",
		"triangled_decode_cache_bytes",
		"triangled_decode_cache_entries",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}

	// Cache off: the decoration drops the suffix and the config round-trips
	// through the negative-means-disabled convention.
	s2, err := New(Config{Graphs: map[string]string{"g": path}, DecodeCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s2.Close()
		stream.SetDecodeCacheBudget(stream.DefaultDecodeCacheBytes)
	}()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if code := get(t, ts2.Client(), ts2.URL+"/estimate?graph=g&seed=3", &first); code != http.StatusOK {
		t.Fatalf("uncached estimate: status %d", code)
	}
	get(t, ts2.Client(), ts2.URL+"/graphs", &graphs)
	if want := stream.DescribeBackend(stream.BackendBex2, false); graphs[0].Backend != want {
		t.Errorf("uncached backend = %q, want %q", graphs[0].Backend, want)
	}
}

// TestMetricsFamiliesContiguousAndTyped pins the /metrics exposition against
// the Prometheus text format with more than one graph registered: every
// sample belongs to a family announced by HELP and TYPE lines before it, and
// each family's samples form one contiguous group (a family never reappears
// after another has started).
func TestMetricsFamiliesContiguousAndTyped(t *testing.T) {
	dir := t.TempDir()
	graphs := map[string]string{}
	for i, name := range []string{"a", "b"} {
		path := filepath.Join(dir, name+".txt")
		writeGraph(t, path, 400, 4, uint64(i+1))
		graphs[name] = path
	}
	s, err := New(Config{Graphs: graphs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name := range graphs {
		if code := get(t, ts.Client(), ts.URL+"/estimate?graph="+name+"&seed=2", nil); code != http.StatusOK {
			t.Fatalf("estimate %s: status %d", name, code)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	helped, typed := map[string]bool{}, map[string]bool{}
	done := map[string]bool{} // families whose group has ended
	perGraph := map[string]int{}
	current := ""
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch f[1] {
			case "HELP":
				helped[f[2]] = true
			case "TYPE":
				typed[f[2]] = true
			}
			continue
		}
		family := line[:strings.IndexAny(line, "{ ")]
		if !helped[family] || !typed[family] {
			t.Errorf("sample %q has no HELP/TYPE for %s before it", line, family)
		}
		if family != current {
			if done[family] {
				t.Errorf("family %s reappears after another family started: %q", family, line)
			}
			if current != "" {
				done[current] = true
			}
			current = family
		}
		if strings.HasPrefix(family, "triangled_graph_") {
			perGraph[family]++
		}
	}
	for _, family := range []string{
		"triangled_graph_backend",
		"triangled_graph_scans_total",
		"triangled_graph_carried_total",
		"triangled_graph_live_clients",
		"triangled_graph_peak_space_words",
	} {
		if perGraph[family] != len(graphs) {
			t.Errorf("%s has %d samples, want one per graph (%d)", family, perGraph[family], len(graphs))
		}
	}
}
