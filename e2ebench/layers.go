package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"degentri/internal/core"
	"degentri/internal/degen"
	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/stream"
	"degentri/triangle"
)

// minSpanCoverage is how much of an operation's wall time its top-level
// spans must account for.
const minSpanCoverage = 0.97

// subject is the estimate a traced run decomposes.
type subject struct {
	in   graphInput
	opts triangle.Options // Seed included
	cold func() error     // makes the next call start as a fresh process would
	// loopMetrics leaves stream.cache_* and runtime.* to the caller, which
	// measures them over its own serve loop instead.
	loopMetrics bool
}

// traceSubject runs one estimate five ways and reports the per-layer
// metrics: untraced (the reference, and the Go runtime's counters); with the
// stream wrapped (stream layer); as ScanGroup open, κ̂ peel and search
// (degen, core, sched); decomposed into degen.EstimateOn and a fixed run at
// guess T through timed executors (passes); and at one worker (engine).
// Every variant must reproduce the reference estimate bit for bit.
func traceSubject(rep *report, tr *tracer, s subject) error {
	rep.linef("traced estimate: graph=%s seed=%d workers=%d", s.in.name, s.opts.Seed, s.opts.Workers)

	if err := s.cold(); err != nil {
		return err
	}
	rc0 := readRuntimeCounters()
	ref, w0, err := timedEstimate(tr, "untraced", s.in.path, s.opts)
	rc := readRuntimeCounters().sub(rc0)
	if !rep.op(checkResult("untraced estimate", ref, err, s.in)) {
		return fmt.Errorf("the reference estimate failed")
	}
	rep.linef("untraced estimate: %.6g in %.3f s (passes=%d scans=%d space=%d words)", ref.Estimate, w0, ref.Passes, ref.Scans, ref.SpaceWords)
	if !s.loopMetrics {
		rep.set("runtime.alloc_mb_per_op", rc.allocBytes/1e6, "untraced estimate")
		rep.set("runtime.gc_cpu_s", rc.gcCPU, "untraced estimate")
	}

	if err := traceStream(rep, tr, s, ref, w0); err != nil {
		return err
	}
	kappaHat, err := traceGroup(rep, tr, s, ref)
	if err != nil {
		return err
	}
	if err := tracePasses(rep, tr, s, kappaHat); err != nil {
		return err
	}

	if err := s.cold(); err != nil {
		return err
	}
	one := s.opts
	one.Workers = 1
	res, w1, err := timedEstimate(tr, "one_worker", s.in.path, one)
	if rep.op(checkResult("one-worker estimate", res, err, s.in)) {
		if d := sameResult(ref, res); d != "" {
			rep.problem("one-worker estimate differs from the reference: " + d)
		}
	}
	rep.set("engine.speedup_1w", w1/w0, fmt.Sprintf("%.3f s at 1 worker / %.3f s at %d", w1, w0, s.opts.Workers))
	return nil
}

// timedEstimate runs EstimateFile as its own traced operation and returns
// its steal-adjusted wall time, which the traced run's ratios compare.
func timedEstimate(tr *tracer, op, path string, opts triangle.Options) (triangle.Result, float64, error) {
	c := now()
	id := tr.begin(op, "estimate", 0)
	res, err := triangle.EstimateFile(path, opts)
	tr.end(id)
	_, wall := c.since()
	return res, wall, err
}

// traceStream reruns the estimate with its stream wrapped in a timedStream.
func traceStream(rep *report, tr *tracer, s subject, ref triangle.Result, w0 float64) error {
	if err := s.cold(); err != nil {
		return err
	}
	st := &streamStats{}
	opts := s.opts
	opts.WrapStream = func(in stream.Stream) stream.Stream { return &timedStream{inner: in, st: st, root: true} }
	c0 := stream.ReadDecodeCacheStats()
	cpu0 := cpuSeconds()
	res, w, err := timedEstimate(tr, "traced", s.in.path, opts)
	cpu := cpuSeconds() - cpu0
	c1 := stream.ReadDecodeCacheStats()
	if rep.op(checkResult("traced estimate", res, err, s.in)) {
		if d := sameResult(ref, res); d != "" {
			rep.problem("traced estimate differs from the untraced one: " + d)
		}
	}
	readS := float64(st.readNs.Load()) / 1e9
	edges := st.edges.Load()
	rep.set("stream.scans", float64(st.scans.Load()), "physical scans: resets of the estimate's stream")
	rep.set("stream.range_opens", float64(st.rangeOpens.Load()), "shard sub-streams opened")
	rep.set("stream.batches", float64(st.batches.Load()), "")
	rep.set("stream.edges", float64(edges), "edges delivered, all scans")
	rep.set("stream.read_s", readS, "in Reset, RangeStream and NextBatch, summed over workers")
	rep.set("stream.ns_per_edge", ratio(readS*1e9, float64(edges)), "")
	rep.set("stream.cpu_share", ratio(readS, cpu), fmt.Sprintf("of %.3f s process CPU", cpu))
	if !s.loopMetrics {
		setCacheMetrics(rep, c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Evictions-c0.Evictions, "traced estimate")
	}
	rep.set("trace.overhead_frac", w/w0-1, fmt.Sprintf("traced %.3f s vs untraced %.3f s", w, w0))
	return nil
}

func setCacheMetrics(rep *report, hits, misses, evictions int64, over string) {
	rep.set("stream.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), fmt.Sprintf("%d hits, %d misses over the %s", hits, misses, over))
	rep.set("stream.cache_evictions", float64(evictions), "over the "+over)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceGroup runs the estimate as a ScanGroup session: open, κ̂ peel, and
// search, each its own span. It returns the group's κ̂.
func traceGroup(rep *report, tr *tracer, s subject, ref triangle.Result) (int, error) {
	if err := s.cold(); err != nil {
		return 0, err
	}
	ctx := context.Background()
	const op = "group"
	root := tr.begin(op, "estimate", 0)
	sp := tr.begin(op, "open", root)
	g, err := triangle.OpenScanGroup(ctx, s.in.path, triangle.GroupOptions{Workers: s.opts.Workers, DecodeCache: s.opts.DecodeCache})
	tr.end(sp)
	if err != nil {
		tr.end(root)
		rep.op("ScanGroup open: " + err.Error())
		return 0, fmt.Errorf("opening the scan group: %w", err)
	}
	sp = tr.begin(op, "kappa_peel", root)
	k, err := g.Degeneracy(ctx)
	peel := tr.end(sp)
	var res triangle.Result
	var search time.Duration
	scans, carried := g.Scans(), g.Carried()
	if err == nil {
		sp = tr.begin(op, "search", root)
		res, err = g.Estimate(ctx, s.opts)
		search = tr.end(sp)
	}
	scans, carried = g.Scans()-scans, g.Carried()-carried
	sp = tr.begin(op, "close", root)
	if cerr := g.Close(); err == nil {
		err = cerr
	}
	tr.end(sp)
	wall := tr.end(root)
	if !rep.op(checkResult("ScanGroup estimate", res, err, s.in)) {
		return 0, fmt.Errorf("the ScanGroup estimate failed")
	}
	if math.Float64bits(res.Estimate) != math.Float64bits(ref.Estimate) {
		rep.problem(fmt.Sprintf("ScanGroup estimate %v differs from EstimateFile's %v", res.Estimate, ref.Estimate))
	}
	checkCoverage(rep, tr, op, root, wall)

	rep.set("degen.s", peel.Seconds(), "ScanGroup.Degeneracy")
	rep.set("degen.passes", float64(k.Passes), "")
	rep.set("degen.kappa_hat", float64(k.Kappa), "")
	rep.set("degen.slack", float64(k.Kappa)/float64(s.in.kappa), fmt.Sprintf("κ̂ = %d over κ = %d", k.Kappa, s.in.kappa))
	rep.set("core.search_s", search.Seconds(), "ScanGroup.Estimate with κ̂ resolved")
	rep.set("sched.scans", float64(scans), "during the search")
	rep.set("sched.carried", float64(carried), "logical passes the search's scans carried")
	rep.set("sched.fused_width", ratio(float64(carried), float64(scans)), "carried passes per scan")
	rep.set("sched.useful_frac", ratio(float64(res.Passes), float64(carried)), fmt.Sprintf("%d logical passes kept of %d carried", res.Passes, carried))
	return k.Kappa, nil
}

// checkCoverage checks that an operation's top-level spans add up to its
// wall time.
func checkCoverage(rep *report, tr *tracer, op string, root int, wall time.Duration) {
	cov := tr.coverage(root)
	rep.linef("trace op %s: top-level spans cover %.2f%% of %.3f s", op, 100*cov, wall.Seconds())
	if cov < minSpanCoverage {
		rep.problem(fmt.Sprintf("op %s: top-level spans cover only %.2f%% of its wall time", op, 100*cov))
	}
}

// tracePasses decomposes the estimate into its passes: degen.EstimateOn
// (without a known vertex count, so the vertex-ID pass runs) and one
// core.Estimator.RunOn at guess T with κ̂ supplied, each through a timed
// executor over its own Direct executor. The fixed run is checked against
// EstimateFile with the same seed, guess and κ̂.
func tracePasses(rep *report, tr *tracer, s subject, groupKappa int) error {
	if err := s.cold(); err != nil {
		return err
	}
	ctx := context.Background()
	retry := stream.DefaultRetryPolicy()
	const op = "decomposed"
	stats := map[string]*passStats{}
	root := tr.begin(op, "estimate", 0)
	sp := tr.begin(op, "open", root)
	fs, err := stream.OpenAutoOpts(s.in.path, stream.OpenOptions{DecodeCache: s.opts.DecodeCache})
	if err != nil {
		tr.end(sp)
		tr.end(root)
		rep.op("decomposed run: " + err.Error())
		return fmt.Errorf("opening %s: %w", s.in.path, err)
	}
	m, known := fs.Len()
	if !known {
		m, _, err = stream.CountEdgesCtx(ctx, fs, retry)
	}
	tr.end(sp)

	var dres degen.Result
	var cres core.Result
	peel := &timedExec{stats: stats, tr: tr, op: op, label: peelLabel}
	fixed := &timedExec{stats: stats, tr: tr, op: op, label: fixedLabel}
	kappa := 0
	if err == nil {
		peel.parent = tr.begin(op, "kappa_peel", root)
		peel.Executor = passes.NewDirectCtx(ctx, fs, m, s.opts.Workers, retry)
		dres, err = degen.EstimateOn(peel, degen.Options{})
		tr.end(peel.parent)
		kappa = max(dres.Kappa, 1)
	}
	if err == nil {
		fixed.parent = tr.begin(op, "fixed_run", root)
		fixed.Executor = passes.NewDirectCtx(ctx, fs, m, s.opts.Workers, retry)
		cres, err = core.NewEstimator(fixedRunConfig(s.opts, kappa, s.in.tri)).RunOn(fixed)
		tr.end(fixed.parent)
	}
	sp = tr.begin(op, "close", root)
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	tr.end(sp)
	wall := tr.end(root)
	if err == nil && (cres.Aborted || cres.EdgesInStream != s.in.m) {
		err = fmt.Errorf("aborted=%t, %d edges", cres.Aborted, cres.EdgesInStream)
	}
	if err != nil {
		rep.op("decomposed run: " + err.Error())
		return fmt.Errorf("the decomposed run failed")
	}
	rep.op("")
	checkCoverage(rep, tr, op, root, wall)
	if kappa != groupKappa {
		rep.problem(fmt.Sprintf("decomposed peel κ̂ = %d, ScanGroup κ̂ = %d", kappa, groupKappa))
	}

	// The same fixed run through the facade must give the same estimate.
	if err := s.cold(); err != nil {
		return err
	}
	opts := s.opts
	opts.TriangleGuess = s.in.tri
	opts.Degeneracy = kappa
	fres, err := triangle.EstimateFile(s.in.path, opts)
	if rep.op(checkResult("fixed-guess estimate", fres, err, s.in)) &&
		math.Float64bits(fres.Estimate) != math.Float64bits(cres.Estimate) {
		rep.problem(fmt.Sprintf("decomposed fixed run %v differs from EstimateFile's %v (seed %d, guess %d, κ̂ %d)",
			cres.Estimate, fres.Estimate, opts.Seed, opts.TriangleGuess, kappa))
	}

	rep.set("core.sample_edges", float64(cres.SampledEdges), fmt.Sprintf("r at guess T = %d", s.in.tri))
	rep.set("core.instances", float64(cres.Instances), "ℓ at guess T")
	peel.reportCount(rep, len(spec.PassOrder.Peel.First)+dres.Rounds, "peel")
	fixed.reportCount(rep, len(spec.PassOrder.FixedRun), "fixed run")
	for _, kind := range passKinds() {
		ps := stats[kind]
		if ps == nil {
			ps = &passStats{}
		}
		proc := float64(ps.procNs.Load()) / 1e9
		note := fmt.Sprintf("%d passes", ps.passes)
		rep.set("passes."+kind+".process_s", proc, note+", summed over workers")
		rep.set("passes."+kind+".merge_s", float64(ps.mergeNs.Load())/1e9, note)
		rep.set("passes."+kind+".wall_s", float64(ps.wallNs)/1e9, note)
		rep.set("passes."+kind+".ns_per_edge", ratio(proc*1e9, float64(ps.edges.Load())), "process time per edge")
	}
	return nil
}

// fixedRunConfig is the estimator configuration triangle.EstimateFile
// builds for opts with a supplied κ bound and T guess: ε = 0.1, sample
// multipliers 8/8/4 and the default retry policy. The decomposed run is
// checked bit for bit against the facade, so a drift here fails that check
// instead of silently measuring a different estimate.
func fixedRunConfig(opts triangle.Options, kappa int, guess int64) core.Config {
	cfg := core.DefaultConfig(0.1, kappa, guess)
	cfg.CR, cfg.CL, cfg.CS = 8, 8, 4
	cfg.Seed = opts.Seed
	cfg.Workers = opts.Workers
	cfg.Retry = stream.DefaultRetryPolicy()
	return cfg
}

// peelLabel and fixedLabel map a pass's position in its phase to its kind
// through the pass-order map of spec.json.
func peelLabel(i int) (string, bool) {
	first := spec.PassOrder.Peel.First
	if i < len(first) {
		return first[i], true
	}
	return spec.PassOrder.Peel.Rest, true
}

func fixedLabel(i int) (string, bool) {
	kinds := spec.PassOrder.FixedRun
	if i < len(kinds) {
		return kinds[i], true
	}
	return "", false
}

// passStats accumulates the time of one pass kind.
type passStats struct {
	passes  int
	wallNs  int64
	procNs  atomic.Int64 // process callbacks, summed over workers
	mergeNs atomic.Int64
	edges   atomic.Int64
}

// timedExec wraps a passes.Executor: it times every RunPass and the process
// and merge callbacks handed to it, and labels each pass with its kind.
// Passes beyond the map's length are counted as unlabeled, not guessed.
type timedExec struct {
	passes.Executor
	label     func(i int) (string, bool)
	stats     map[string]*passStats
	tr        *tracer
	op        string
	parent    int
	n         int
	unlabeled int
}

func (x *timedExec) RunPass(process func(shard int, batch []graph.Edge) error, merge func(shard int) error) error {
	kind, ok := x.label(x.n)
	x.n++
	if !ok {
		x.unlabeled++
		return x.Executor.RunPass(process, merge)
	}
	ps := x.stats[kind]
	if ps == nil {
		ps = &passStats{}
		x.stats[kind] = ps
	}
	id := x.tr.begin(x.op, "pass:"+kind, x.parent)
	err := x.Executor.RunPass(
		func(shard int, batch []graph.Edge) error {
			t := time.Now()
			err := process(shard, batch)
			ps.procNs.Add(int64(time.Since(t)))
			ps.edges.Add(int64(len(batch)))
			return err
		},
		func(shard int) error {
			t := time.Now()
			err := merge(shard)
			ps.mergeNs.Add(int64(time.Since(t)))
			return err
		})
	ps.wallNs += int64(x.tr.end(id))
	ps.passes++
	return err
}

// reportCount prints a line when the phase made a different number of
// passes than the pass-order map expects.
func (x *timedExec) reportCount(rep *report, want int, phase string) {
	if x.n != want || x.unlabeled > 0 {
		rep.linef("passes: the %s made %d passes, the pass-order map labels %d (%d unlabeled, not timed by kind)", phase, x.n, want, x.unlabeled)
	}
}

// streamStats counts what the stream layer did under a traced estimate.
type streamStats struct {
	scans      atomic.Int64 // Resets of the estimate's own stream
	rangeOpens atomic.Int64
	batches    atomic.Int64
	edges      atomic.Int64
	readNs     atomic.Int64
}

// timedStream times Reset, RangeStream and NextBatch of a stream. It
// forwards range access, wrapping each sub-stream the same way, and closes
// sub-streams, as internal/faultio does: without RangeStream the scan
// engine would fall back to a sequential scan, and the traced run would
// measure a different program.
type timedStream struct {
	inner stream.Stream
	st    *streamStats
	root  bool // the estimate's own stream, not a shard sub-stream
}

func (s *timedStream) Reset() error {
	t := time.Now()
	err := s.inner.Reset()
	s.st.readNs.Add(int64(time.Since(t)))
	if s.root {
		s.st.scans.Add(1)
	}
	return err
}

func (s *timedStream) Next() (graph.Edge, error) {
	t := time.Now()
	e, err := s.inner.Next()
	s.st.readNs.Add(int64(time.Since(t)))
	if err == nil {
		s.st.edges.Add(1)
	}
	return e, err
}

func (s *timedStream) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	t := time.Now()
	batch, err := s.inner.NextBatch(buf)
	s.st.readNs.Add(int64(time.Since(t)))
	if len(batch) > 0 {
		s.st.batches.Add(1)
		s.st.edges.Add(int64(len(batch)))
	}
	return batch, err
}

func (s *timedStream) Len() (int, bool) { return s.inner.Len() }

// RangeStream implements stream.RangeStreamer when the inner stream does.
func (s *timedStream) RangeStream(lo, hi int) (stream.Stream, bool) {
	rs, ok := s.inner.(stream.RangeStreamer)
	if !ok {
		return nil, false
	}
	t := time.Now()
	sub, ok := rs.RangeStream(lo, hi)
	s.st.readNs.Add(int64(time.Since(t)))
	if !ok {
		return nil, false
	}
	s.st.rangeOpens.Add(1)
	return &timedStream{inner: sub, st: s.st}, true
}

// Close closes the inner stream when it has a Close.
func (s *timedStream) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
