// Command e2ebench is the repository's end-to-end benchmark. It times whole
// triangle estimates (triangle.EstimateFile) and requests to a triangled
// daemon (internal/server) running inside this process, on graphs it
// generates with internal/gen, and checks every output. A run
// with -trace 1 breaks an estimate down layer by layer instead, by wrapping
// the calls into each layer from this package; the program under test is
// used as is.
//
// Usage, from the repository root (run.sh builds the binary inside the
// checkout first):
//
//	bash e2ebench/run.sh --workload oneshot-powerlaw --seed 3 --seconds 24 --trace 0
//
// Workloads, metrics, the layer map and the pass-order map are described in
// spec.json. Standard output is a human-readable report (settings, inputs,
// every metric with its unit) whose last line is one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is 0 only when
// every output was correct, no goroutine outlived the workload, and the
// temporary inputs were removed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"degentri/internal/stream"
)

// Workload names.
const (
	wlPowerlaw   = "oneshot-powerlaw"
	wlPlanarText = "oneshot-planar-text"
	wlServeMixed = "serve-mixed"
)

var workloads = []string{wlPowerlaw, wlPlanarText, wlServeMixed}

// Run settings. They match trianglecount's defaults: one shard worker per
// CPU, SIMD decode on, and the decoded-block cache on at its default budget.
const (
	decodeCacheBytes = stream.DefaultDecodeCacheBytes
	// runDeadline bounds a whole invocation: past it the process removes
	// its inputs and exits by itself, so nothing ever has to be killed.
	runDeadline = 170 * time.Second
	// setupRepeats is how many times a run sets up its inputs; setup_s is
	// the median.
	setupRepeats = 3
	// minOps is the fewest operations a timed phase runs, however short
	// --seconds is.
	minOps = 3
)

// nominalOpSeconds is each workload's typical operation time on a 2-vCPU
// machine. A timed phase makes ⌈--seconds / nominal⌉ operations rather than
// running until a clock expires: the count depends on --seconds alone, so
// every run does the same work however fast or loaded the machine is, and
// lasts about --seconds there.
var nominalOpSeconds = map[string]float64{wlPowerlaw: 5, wlPlanarText: 8, wlServeMixed: 0.625}

// opsPerRun is the operation count of a timed phase.
func opsPerRun(workload string, seconds time.Duration) int {
	return max(minOps, int(math.Ceil(seconds.Seconds()/nominalOpSeconds[workload])))
}

// scale sets the input sizes.
type scale struct {
	powerlawN        int     // Chung–Lu vertices
	powerlawAvgDeg   float64 // Chung–Lu target average degree
	planarInsertions int     // Apollonian insertions
}

// fullScale is the benchmark's scale: ROADMAP's ≈3.8M-edge Chung–Lu
// reference graph and a 3.9M-edge Apollonian network.
var fullScale = scale{powerlawN: 500_000, powerlawAvgDeg: 16, planarInsertions: 1_300_000}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scale    scale
	setups   int
	workers  int // shard workers per scan, and daemon clients
	// outDir receives the temporary input directory (removed at exit) and
	// the span file of a traced run.
	outDir string
	stdout io.Writer
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v; removing inputs and exiting\n", runDeadline)
		removeLiveInputs()
		os.Exit(3)
	})
	// An interrupted run removes its inputs too.
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-signals
		fmt.Fprintf(os.Stderr, "e2ebench: %v; removing inputs and exiting\n", sig)
		removeLiveInputs()
		os.Exit(4)
	}()
	res, err := run(cfg)
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: shuffles the serve-mixed request order")
	seconds := fs.Int("seconds", 24, "length of the timed phase in seconds, on a 2-vCPU machine")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if !slices.Contains(workloads, *workload) {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return config{}, errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		scale:    fullScale,
		setups:   setupRepeats,
		workers:  runtime.NumCPU(),
		outDir:   filepath.Join(".bench_build", "e2ebench"),
		stdout:   os.Stdout,
	}, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and correctness problems and prints the
// human-readable lines as it goes.
type report struct {
	w         io.Writer
	values    map[string]float64
	attempted int
	failed    int // operations that errored, were refused, or came back wrong
	problems  int // correctness failures, failed operations included
}

func newReport(w io.Writer) *report {
	return &report{w: w, values: map[string]float64{}}
}

func (r *report) linef(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// set records a metric declared in spec.json and prints it with its unit.
func (r *report) set(name string, v float64, note string) {
	ms, ok := specMetric(name)
	if !ok {
		panic("e2ebench: metric " + name + " is not declared in spec.json")
	}
	r.values[name] = v
	if note != "" {
		note = "  (" + note + ")"
	}
	r.linef("metric %-34s %14.6g %s%s", name, v, ms.Unit, note)
}

// op counts one attempted operation; a non-empty problem marks it failed.
func (r *report) op(problem string) bool {
	r.attempted++
	if problem == "" {
		return true
	}
	r.failed++
	r.problem(problem)
	return false
}

// problem records a correctness failure: a failed operation (through op),
// a mismatch found by a cross-check, or a leaked goroutine.
func (r *report) problem(p string) {
	r.problems++
	r.linef("FAIL %s", p)
}

// liveInputs is the temporary input directory of the running workload, for
// the watchdog and the signal handler to remove if the run cannot finish.
var liveInputs struct {
	sync.Mutex
	dir string
}

func removeLiveInputs() {
	liveInputs.Lock()
	defer liveInputs.Unlock()
	if liveInputs.dir != "" {
		os.RemoveAll(liveInputs.dir)
	}
}

// run executes one invocation and prints the report and the result line.
func run(cfg config) (result, error) {
	rep := newReport(cfg.stdout)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, fmt.Errorf("creating output directory: %w", err)
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "inputs-")
	if err != nil {
		return result{}, fmt.Errorf("creating input directory: %w", err)
	}
	liveInputs.Lock()
	liveInputs.dir = tmp
	liveInputs.Unlock()
	defer removeLiveInputs()

	stream.SetSIMDDecode(true)
	stream.SetDecodeCacheBudget(decodeCacheBytes)
	printSettings(rep, cfg)
	tr := newTracer()
	goroutines := runtime.NumGoroutine()

	switch cfg.workload {
	case wlServeMixed:
		err = runServe(cfg, rep, tr, tmp)
	default:
		err = runOneshot(cfg, rep, tr, tmp)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	if err := os.RemoveAll(tmp); err != nil {
		rep.problem(fmt.Sprintf("removing the input directory: %v", err))
	}
	if n, ok := settleGoroutines(goroutines); !ok {
		rep.problem(fmt.Sprintf("%d goroutines outlived the workload (%d before it)", n, goroutines))
		buf := make([]byte, 1<<20)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		rep.linef("spans %d written to %s", len(tr.spans), path)
	}
	return finish(cfg, rep)
}

// settleGoroutines waits up to two seconds for the goroutine count to fall
// back to its pre-workload level (connection goroutines exit asynchronously
// after their sockets close).
func settleGoroutines(before int) (int, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// finish prints fail_frac and the result line: every end_to_end metric of
// spec.json for an untraced run, every per_layer metric for a traced one.
func finish(cfg config, rep *report) (result, error) {
	if rep.attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	rep.set("fail_frac", float64(rep.failed)/float64(rep.attempted), fmt.Sprintf("%d of %d", rep.failed, rep.attempted))
	level := levelEndToEnd
	if cfg.trace {
		level = levelPerLayer
	}
	res := result{
		Correct:   rep.problems == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, ms := range spec.Metrics {
		if ms.Level != level {
			continue
		}
		v, ok := rep.values[ms.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, ms.Name)
			continue
		}
		res.Metrics[ms.Name] = metric{Value: v, Unit: ms.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return result{}, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(cfg.stdout, string(line))
	return res, nil
}

// printSettings prints everything that moves the numbers, so a run on a
// different machine or build shows as different rather than as a change.
func printSettings(rep *report, cfg config) {
	rep.linef("workload %s seed=%d seconds=%d trace=%t", cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
	rep.linef("settings nproc=%d GOMAXPROCS=%d go=%s cpu=%q workers=%d clients=%d decode_cache_bytes=%d decode_kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), cfg.workers, cfg.workers,
		decodeCacheBytes, stream.DecodeKernelName())
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
