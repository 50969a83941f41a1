package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"degentri/internal/server"
	"degentri/triangle"
)

// Request kinds of the serve-mixed mix.
const (
	kindRefresh = "refresh" // guess = exact T, the group's κ̂
	kindSearch  = "search"  // full geometric search, planar graph only
)

const (
	// requestBudget is the MaxSpaceWords every request declares (the
	// daemon's default budget); the cross-check runs the library with it.
	requestBudget = 1 << 22
	// requestTimeout bounds one request on the client side.
	requestTimeout = 60 * time.Second
	// drainGrace is the daemon's drain grace period at teardown.
	drainGrace = 10 * time.Second
)

// daemon is a triangled server running inside this process on a loopback
// listener, with the client the benchmark's load loop uses.
type daemon struct {
	graphs   map[string]graphInput
	srv      *server.Server
	hs       *http.Server
	served   chan error
	client   *http.Client
	base     string
	kappaHat map[string]int
}

// startDaemon serves the inputs and warms every graph up: a /degeneracy
// request builds its ScanGroup and peels κ̂, so timing starts warm.
func startDaemon(ins []graphInput, workers int) (*daemon, error) {
	d := &daemon{graphs: map[string]graphInput{}, kappaHat: map[string]int{}}
	paths := map[string]string{}
	for _, in := range ins {
		d.graphs[in.name] = in
		paths[in.name] = in.path
	}
	srv, err := server.New(server.Config{Graphs: paths, Workers: workers, DecodeCacheBytes: decodeCacheBytes})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.srv = srv
	d.hs = &http.Server{Handler: srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: workers + 1}}
	d.base = "http://" + ln.Addr().String()

	for _, in := range ins {
		var k struct {
			Kappa int `json:"kappa"`
		}
		if err := d.getJSON("/degeneracy?graph="+in.name, &k); err != nil {
			d.stop()
			return nil, fmt.Errorf("warming up %s: %w", in.name, err)
		}
		if k.Kappa < in.kappa {
			d.stop()
			return nil, fmt.Errorf("%s: daemon κ̂ = %d is below κ = %d", in.name, k.Kappa, in.kappa)
		}
		d.kappaHat[in.name] = k.Kappa
	}
	return d, nil
}

// stop drains the daemon, shuts the HTTP server down, waits for its serve
// loop to return, and closes the client's idle connections.
func (d *daemon) stop() error {
	clean := d.srv.Drain(drainGrace)
	ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if err == nil && !clean {
		err = errors.New("requests were still in flight after the drain grace period")
	}
	return err
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

// scrape reads the daemon's /metrics as a name → value map; labelled
// series keep their labels in the name.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// request is one request of the mix.
type request struct {
	kind  string
	graph string
	seed  uint64
}

// requestMix returns the request sequence of a workload seed: the given
// number of blocks of eight. Every fourth request is a planar search; the
// six refreshes of a block, three per graph, take their slots in an order
// shuffled from the seed. Spacing the searches evenly keeps two of them
// from occupying both clients at once in some runs and not in others. The
// k-th request of a kind runs with estimator seed k, so the estimators' work
// does not depend on the order.
func requestMix(seed uint64, blocks int) []request {
	rng := rand.New(rand.NewPCG(seed, seedKeyRequests))
	graphs := []string{"powerlaw", "powerlaw", "powerlaw", "planar", "planar", "planar"}
	seeds := map[string]uint64{}
	var out []request
	add := func(kind, graph string) {
		seeds[kind]++
		out = append(out, request{kind: kind, graph: graph, seed: seeds[kind]})
	}
	for range blocks {
		rng.Shuffle(len(graphs), func(i, j int) { graphs[i], graphs[j] = graphs[j], graphs[i] })
		for i, g := range graphs {
			if i%3 == 0 {
				add(kindSearch, "planar")
			}
			add(kindRefresh, g)
		}
	}
	return out
}

// blockSize is the number of requests in one block of the mix.
const blockSize = 8

// estimateReply is the part of the daemon's /estimate response the
// benchmark checks.
type estimateReply struct {
	Estimate        float64 `json:"estimate"`
	Edges           int     `json:"edges"`
	DegeneracyBound int     `json:"degeneracyBound"`
	Partial         bool    `json:"partial"`
	Aborted         bool    `json:"aborted"`
	ElapsedMS       float64 `json:"elapsedMs"`
}

// outcome is one request as its client saw it.
type outcome struct {
	req     request
	latency float64 // seconds, client side, steal-adjusted
	raw     float64 // seconds, client side, raw wall
	reply   estimateReply
	problem string
	start   time.Time
	done    time.Time
}

func (d *daemon) query(r request) url.Values {
	q := url.Values{}
	q.Set("graph", r.graph)
	q.Set("seed", strconv.FormatUint(r.seed, 10))
	q.Set("budget", strconv.Itoa(requestBudget))
	if r.kind == kindRefresh {
		q.Set("guess", strconv.FormatInt(d.graphs[r.graph].tri, 10))
	}
	return q
}

// do sends one request and checks its reply: a complete 200 that streamed
// every edge with a degeneracy bound no smaller than κ.
func (d *daemon) do(r request) outcome {
	c := now()
	o := outcome{req: r, start: c.wall}
	err := d.getJSON("/estimate?"+d.query(r).Encode(), &o.reply)
	o.raw, o.latency = c.since()
	o.done = time.Now()
	in := d.graphs[r.graph]
	switch {
	case err != nil:
		o.problem = err.Error()
	case o.reply.Partial || o.reply.Aborted:
		o.problem = fmt.Sprintf("partial=%t aborted=%t", o.reply.Partial, o.reply.Aborted)
	case o.reply.Edges != in.m:
		o.problem = fmt.Sprintf("%d edges, want %d", o.reply.Edges, in.m)
	case o.reply.DegeneracyBound < in.kappa:
		o.problem = fmt.Sprintf("degeneracy bound %d below κ = %d", o.reply.DegeneracyBound, in.kappa)
	}
	if o.problem != "" {
		o.problem = fmt.Sprintf("%s %s seed %d: %s", r.kind, r.graph, r.seed, o.problem)
	}
	return o
}

// load runs the closed loop: `clients` clients take the requests in order,
// each sending its next request only after the previous reply. It returns
// the outcomes and the loop's raw and steal-adjusted wall time.
func (d *daemon) load(reqs []request, clients int, tr *tracer) (outs []outcome, raw, adjusted float64) {
	var next atomic.Int64
	var mu sync.Mutex
	start := now()
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				var id int
				if tr != nil {
					id = tr.begin(fmt.Sprintf("request%d", i), "request:"+reqs[i].kind+":"+reqs[i].graph, 0)
				}
				o := d.do(reqs[i])
				if tr != nil {
					tr.end(id)
				}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	raw, adjusted = start.since()
	return outs, raw, adjusted
}

// runServe runs serve-mixed: a closed loop of one client per CPU against the
// daemon serving both graphs as .bex v2.
func runServe(cfg config, rep *report, tr *tracer, tmp string) error {
	c := cfg
	if cfg.trace {
		c.setups = 1
	}
	build := func(dir string) (*daemon, error) {
		ins, err := makeBoth(dir, cfg.scale)
		if err != nil {
			return nil, err
		}
		return startDaemon(ins, cfg.workers)
	}
	d, err := setUpRepeated(c, rep, tmp, build, (*daemon).stop)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	for _, name := range []string{"powerlaw", "planar"} {
		if err := printInput(rep, d.graphs[name]); err != nil {
			return err
		}
		rep.linef("daemon %s kappa_hat=%d", name, d.kappaHat[name])
	}
	blocks := (opsPerRun(cfg.workload, cfg.seconds) + blockSize - 1) / blockSize
	reqs := requestMix(cfg.seed, blocks)
	runtime.GC()

	var before map[string]float64
	if cfg.trace {
		if before, err = d.scrape(); err != nil {
			return err
		}
	}
	rc0 := readRuntimeCounters()
	cpu0 := cpuSeconds()
	heap := startHeapSampler()
	var loopTracer *tracer
	if cfg.trace {
		loopTracer = tr
	}
	outs, rawElapsed, elapsed := d.load(reqs, cfg.workers, loopTracer)
	cpu := cpuSeconds() - cpu0
	heap.finish()
	rc := readRuntimeCounters().sub(rc0)
	var after map[string]float64
	if cfg.trace {
		if after, err = d.scrape(); err != nil {
			return err
		}
	}

	var all, execMs, queueMs []float64
	var windows []opWindow
	byKind := map[string][]float64{}
	done := 0
	for _, o := range outs {
		lat := o.latency
		if !rep.op(o.problem) {
			lat = math.Inf(1)
		} else {
			done++
			windows = append(windows, opWindow{o.start, o.done})
			execMs = append(execMs, o.reply.ElapsedMS)
			queueMs = append(queueMs, o.raw*1e3-o.reply.ElapsedMS)
		}
		all = append(all, lat)
		byKind[o.req.kind] = append(byKind[o.req.kind], lat)
	}
	if done == 0 {
		return errors.New("every request failed")
	}

	// Cross-check one reply per graph and kind against the library, with
	// the same options, outside the timed phase.
	checked := map[string]bool{}
	for _, o := range outs {
		key := o.req.kind + " " + o.req.graph
		if o.problem != "" || checked[key] {
			continue
		}
		checked[key] = true
		d.crossCheck(rep, o, cfg.workers)
	}
	for _, key := range []string{"refresh powerlaw", "refresh planar", "search planar"} {
		if !checked[key] {
			rep.problem("no successful " + key + " request to cross-check")
		}
	}

	if !cfg.trace {
		n := len(all)
		rep.set("latency_p50_ms", median(all)*1e3, fmt.Sprintf("median of %d requests, steal-adjusted", n))
		if p, v, ok := tailPercentile(all); ok {
			rep.set("latency_tail_ms", v*1e3, fmt.Sprintf("p%d of %d requests", p, n))
		} else {
			rep.linef("metric %-34s %14s ms  (fewer than 11 requests)", "latency_tail_ms", "n/a")
		}
		rep.set("refresh_p50_ms", median(byKind[kindRefresh])*1e3, fmt.Sprintf("median of %d", len(byKind[kindRefresh])))
		rep.set("search_p50_ms", median(byKind[kindSearch])*1e3, fmt.Sprintf("median of %d", len(byKind[kindSearch])))
		rep.set("cpu_per_op_s", cpu/float64(done), fmt.Sprintf("%.3f s CPU over %d requests", cpu, done))
		rep.set("qps", float64(done)/elapsed, fmt.Sprintf("%d requests in %.3f s steal-adjusted, %.3f s raw, %d clients", done, elapsed, rawElapsed, cfg.workers))
		rep.set("live_heap_peak_mb", heap.medianPeakMB(windows), fmt.Sprintf("median of %d requests, of each one's peak", len(windows)))
	} else {
		delta := func(key string) float64 { return after[key] - before[key] }
		rep.set("server.exec_p50_ms", median(execMs), fmt.Sprintf("the daemon's elapsedMs, median of %d", len(execMs)))
		rep.set("server.queue_p50_ms", median(queueMs), "client latency minus elapsedMs")
		for _, name := range []string{"powerlaw", "planar"} {
			lbl := fmt.Sprintf("{graph=%q}", name)
			scans, carried := delta("triangled_graph_scans_total"+lbl), delta("triangled_graph_carried_total"+lbl)
			rep.set("server.fused_width."+name, ratio(carried, scans), fmt.Sprintf("%.0f carried over %.0f scans", carried, scans))
		}
		hits, misses := delta("triangled_decode_cache_hits_total"), delta("triangled_decode_cache_misses_total")
		rep.set("server.cache_hit_ratio", ratio(hits, hits+misses), "from /metrics")
		rep.set("server.shed", delta("triangled_shed_total"), "")
		setCacheMetrics(rep, int64(hits), int64(misses), int64(delta("triangled_decode_cache_evictions_total")), "serve loop")
		rep.set("runtime.alloc_mb_per_op", rc.allocBytes/1e6/float64(len(outs)), "serve loop")
		rep.set("runtime.gc_cpu_s", rc.gcCPU/float64(len(outs)), "per request, serve loop")
	}

	stopped = true
	if err := d.stop(); err != nil {
		rep.problem("daemon shutdown: " + err.Error())
	}
	if !cfg.trace {
		return nil
	}
	// The per-layer breakdown of the mix's long request kind: its first
	// planar search (estimator seed 1), run standalone.
	planar := d.graphs["planar"]
	opts := estimateOptions(cfg)
	opts.Seed = 1
	return traceSubject(rep, tr, subject{in: planar, opts: opts, cold: coldStart(planar, false), loopMetrics: true})
}

// crossCheck reruns a reply's estimate with triangle.EstimateFile and the
// same options and requires the same bits.
func (d *daemon) crossCheck(rep *report, o outcome, workers int) {
	in := d.graphs[o.req.graph]
	opts := triangle.Options{Seed: o.req.seed, MaxSpaceWords: requestBudget, Workers: workers, DecodeCache: true}
	if o.req.kind == kindRefresh {
		opts.TriangleGuess = in.tri
	}
	res, err := triangle.EstimateFile(in.path, opts)
	what := fmt.Sprintf("library rerun of %s %s seed %d", o.req.kind, o.req.graph, o.req.seed)
	if !rep.op(checkResult(what, res, err, in)) {
		return
	}
	if math.Float64bits(res.Estimate) != math.Float64bits(o.reply.Estimate) {
		rep.problem(fmt.Sprintf("%s: %v, the daemon replied %v", what, res.Estimate, o.reply.Estimate))
	}
}
