package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"degentri/internal/stream"
	"degentri/triangle"
)

// runOneshot runs oneshot-powerlaw or oneshot-planar-text: sequential
// EstimateFile calls with distinct estimator seeds, each starting as a fresh
// trianglecount process would.
func runOneshot(cfg config, rep *report, tr *tracer, tmp string) error {
	text := cfg.workload == wlPlanarText
	build := func(dir string) (graphInput, error) {
		if text {
			return makePlanar(dir, cfg.scale, "planar.txt")
		}
		return makePowerlaw(dir, cfg.scale)
	}
	setups := cfg.setups
	if cfg.trace {
		setups = 1 // setup_s is an end-to-end metric; a traced run sets up once
	}
	c := cfg
	c.setups = setups
	in, err := setUpRepeated(c, rep, tmp, build, func(graphInput) error { return nil })
	if err != nil {
		return err
	}
	if err := printInput(rep, in); err != nil {
		return err
	}
	s := subject{in: in, cold: coldStart(in, text), opts: estimateOptions(cfg)}
	runtime.GC()

	if cfg.trace {
		s.opts.Seed = 1
		return traceSubject(rep, tr, s)
	}

	n := opsPerRun(cfg.workload, cfg.seconds)
	var walls, raws, cpus, relErr []float64
	var windows []opWindow
	var passes, scans int
	var space int64
	heap := startHeapSampler()
	start := now()
	for i := range n {
		if err := s.cold(); err != nil {
			heap.finish()
			return err
		}
		opts := s.opts
		opts.Seed = uint64(i + 1)
		cpu0 := cpuSeconds()
		t := now()
		res, err := triangle.EstimateFile(in.path, opts)
		raw, wall := t.since()
		cpu := cpuSeconds() - cpu0
		windows = append(windows, opWindow{t.wall, time.Now()})
		if !rep.op(checkResult(fmt.Sprintf("estimate %d (seed %d)", i, opts.Seed), res, err, in)) {
			raw, wall, cpu = math.Inf(1), math.Inf(1), math.Inf(1)
		}
		walls = append(walls, wall)
		raws = append(raws, raw)
		cpus = append(cpus, cpu)
		passes += res.Passes
		scans += res.Scans
		space = max(space, res.SpaceWords)
		relErr = append(relErr, math.Abs(res.Estimate-float64(in.tri))/float64(in.tri))
	}
	rawElapsed, elapsed := start.since()
	heap.finish()
	done := rep.attempted - rep.failed
	if done == 0 {
		return fmt.Errorf("every estimate failed")
	}

	note := fmt.Sprintf("median of %d estimates", n)
	rep.set("latency_p50_ms", median(walls)*1e3, note+", steal-adjusted: "+fmtSeconds(walls))
	rep.set("estimate_s", median(raws), note+", raw wall: "+fmtSeconds(raws))
	rep.set("cpu_per_op_s", median(cpus), note+": "+fmtSeconds(cpus))
	rep.set("live_heap_peak_mb", heap.medianPeakMB(windows), note+", of each one's peak")
	rep.set("qps", float64(done)/elapsed, fmt.Sprintf("%d estimates in %.3f s steal-adjusted, %.3f s raw", done, elapsed, rawElapsed))
	note = fmt.Sprintf("the %d estimates", n)
	rep.set("passes", float64(passes), "summed over "+note)
	rep.set("scans", float64(scans), "summed over "+note)
	rep.set("space_words", float64(space), "max over "+note)
	rep.set("rel_err_p50", median(relErr), "median over "+note)
	return nil
}

// estimateOptions are trianglecount's defaults for a run with cfg.workers
// shard workers.
func estimateOptions(cfg config) triangle.Options {
	return triangle.Options{Workers: cfg.workers, DecodeCache: true}
}

// coldStart returns the step that makes the next estimate over in start as
// a fresh process would. For .bex v2 it empties the decoded-block cache.
// For a text file it re-stamps the modification time: the process-wide text
// index cache is keyed on it, so a later call cannot reuse the index an
// earlier call built.
func coldStart(in graphInput, text bool) func() error {
	if !text {
		return func() error {
			stream.SetDecodeCacheBudget(0)
			stream.SetDecodeCacheBudget(decodeCacheBytes)
			return nil
		}
	}
	base := time.Now().Truncate(time.Second)
	stamps := 0
	return func() error {
		stamps++
		t := base.Add(time.Duration(stamps) * time.Second)
		return os.Chtimes(in.path, t, t)
	}
}

// sameResult reports how two results of the same estimate differ, or ""
// when they are bit-identical in everything a user reads.
func sameResult(a, b triangle.Result) string {
	if math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) {
		return fmt.Sprintf("estimate %v vs %v", a.Estimate, b.Estimate)
	}
	x := []int64{int64(a.Passes), int64(a.Scans), a.SpaceWords, int64(a.DegeneracyBound)}
	y := []int64{int64(b.Passes), int64(b.Scans), b.SpaceWords, int64(b.DegeneracyBound)}
	if !slices.Equal(x, y) {
		return fmt.Sprintf("passes/scans/space/κ̂ %v vs %v", x, y)
	}
	return ""
}
