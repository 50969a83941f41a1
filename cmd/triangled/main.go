// Command triangled is the estimation daemon: it serves triangle, clique,
// and degeneracy queries over HTTP/JSON against a registry of graph files,
// fusing concurrent same-graph queries onto shared physical scans.
//
// Usage:
//
//	triangled -graph web=web.bex -graph social=soc.txt -listen :8321
//	triangled -graph g=g.txt -allow-inject            # enable ?inject= (chaos testing)
//	triangled load -addr http://localhost:8321 -n 2000 -c 64
//
// Endpoints: /estimate, /cliques, /degeneracy (query parameters: graph,
// seed, epsilon, kappa, guess, multiplier, budget, timeout, k, inject),
// /graphs, /healthz, /readyz, /metrics.
//
// Overload behavior: requests beyond the execution slots wait in a bounded
// queue and are shed with 429 past its depth; requests whose declared space
// budget cannot fit under the process ceiling are refused with 503; a
// request deadline that fires mid-search returns the best completed probe
// as a 200 with "partial": true. Graphs that fail repeatedly with I/O
// errors are quarantined behind a per-graph circuit breaker and re-probed
// after a growing backoff.
//
// SIGTERM and SIGINT start a graceful drain: readiness flips to 503, no new
// requests are admitted, in-flight requests finish under -drain-grace, then
// stragglers are hard-cancelled. The daemon exits 0 after a drain.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"degentri/internal/buildinfo"
	"degentri/internal/server"
	"degentri/internal/stream"
)

// decodeCacheConfig maps the -decode-cache flag to Config.DecodeCacheBytes,
// where 0 means "default" — so an explicit 0 (disable) becomes negative.
func decodeCacheConfig(bytes int64) int64 {
	if bytes <= 0 {
		return -1
	}
	return bytes
}

const (
	exitInternal = 1
	exitUsage    = 2
	exitIO       = 3
)

// graphFlags collects repeated -graph name=path registrations.
type graphFlags map[string]string

func (g graphFlags) String() string {
	names := make([]string, 0, len(g))
	for name := range g {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func (g graphFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return errors.New("want name=path")
	}
	if _, dup := g[name]; dup {
		return fmt.Errorf("graph %q registered twice", name)
	}
	g[name] = path
	return nil
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "load" {
		runLoad(args[1:])
		return
	}
	if len(args) > 0 && args[0] == "serve" {
		args = args[1:]
	}
	runServe(args)
}

func runServe(args []string) {
	fs := flag.NewFlagSet("triangled", flag.ExitOnError)
	graphs := graphFlags{}
	fs.Var(graphs, "graph", "register a graph as name=path (repeatable, required)")
	var (
		listen     = fs.String("listen", "127.0.0.1:8321", "listen address")
		workers    = fs.Int("workers", 0, "shard workers per physical scan (0 = all cores)")
		retries    = fs.Int("retries", 0, "transient I/O retry attempts per scan (0 = default 3, negative = disabled)")
		dcache     = fs.Int64("decode-cache", stream.DefaultDecodeCacheBytes, "byte budget of the decoded-block cache serving repeat .bex v2 block reads (0 disables); results are identical")
		maxConc    = fs.Int("max-concurrent", 0, "execution slots (0 = 2x cores)")
		queue      = fs.Int("queue", 64, "bounded queue depth; requests beyond it are shed with 429")
		ceiling    = fs.Int64("ceiling", 1<<26, "aggregate admitted space-budget ceiling, words")
		defBudget  = fs.Int64("default-budget", 1<<22, "space budget assumed for requests that declare none, words")
		defTimeout = fs.Duration("timeout", 30*time.Second, "deadline for requests that declare none")
		maxTimeout = fs.Duration("max-timeout", 120*time.Second, "clamp on declared request deadlines")
		brThresh   = fs.Int("breaker-threshold", 3, "consecutive I/O failures that quarantine a graph")
		brBackoff  = fs.Duration("breaker-backoff", 500*time.Millisecond, "first quarantine period (doubles per re-trip)")
		brMax      = fs.Duration("breaker-backoff-max", 30*time.Second, "quarantine period cap")
		inject     = fs.Bool("allow-inject", false, "enable the ?inject= fault-injection parameter (chaos testing)")
		grace      = fs.Duration("drain-grace", 30*time.Second, "drain grace period before in-flight requests are hard-cancelled")
		version    = fs.Bool("version", false, "print version and exit")
	)
	fs.Parse(args)
	if *version {
		fmt.Println(buildinfo.String("triangled"))
		return
	}
	if len(graphs) == 0 {
		fmt.Fprintln(os.Stderr, "triangled: at least one -graph name=path is required")
		fs.Usage()
		os.Exit(exitUsage)
	}

	s, err := server.New(server.Config{
		Graphs:             graphs,
		Workers:            *workers,
		RetryAttempts:      *retries,
		DecodeCacheBytes:   decodeCacheConfig(*dcache),
		MaxConcurrent:      *maxConc,
		QueueDepth:         *queue,
		SpaceCeilingWords:  *ceiling,
		DefaultBudgetWords: *defBudget,
		DefaultTimeout:     *defTimeout,
		MaxTimeout:         *maxTimeout,
		BreakerThreshold:   *brThresh,
		BreakerBackoff:     *brBackoff,
		BreakerBackoffMax:  *brMax,
		AllowInject:        *inject,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "triangled:", err)
		os.Exit(exitUsage)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "triangled:", err)
		os.Exit(exitIO)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "triangled: serving %d graph(s) [%s] on %s\n", len(graphs), graphs.String(), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "triangled:", err)
		s.Close()
		os.Exit(exitInternal)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "triangled: %v: draining (grace %v)\n", got, *grace)
	}
	clean := s.Drain(*grace)
	httpSrv.Close()
	if clean {
		fmt.Fprintln(os.Stderr, "triangled: drain complete, all in-flight requests finished")
	} else {
		fmt.Fprintln(os.Stderr, "triangled: drain grace expired, stragglers were hard-cancelled")
	}
	os.Exit(0)
}
