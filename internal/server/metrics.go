package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"

	"degentri/internal/stream"
)

// metrics is the daemon's counter set, exposed as Prometheus-style text at
// /metrics (hand-rolled: the exposition format is lines, not a dependency).
type metrics struct {
	requests atomic.Int64 // every request that reached a handler

	// Outcome counters; a request lands in exactly one.
	ok             atomic.Int64 // 200, complete result
	partial        atomic.Int64 // 200 with partial=true (deadline degradation)
	aborted        atomic.Int64 // 200 with aborted=true (budget cutoff)
	shed           atomic.Int64 // 429, queue full
	budgetRejected atomic.Int64 // 503, ledger refused the declared budget
	quarantined    atomic.Int64 // 503, breaker open
	draining       atomic.Int64 // 503, arrived after SIGTERM
	deadline       atomic.Int64 // 504, deadline with nothing usable
	canceled       atomic.Int64 // 499-class, client went away
	ioErrors       atomic.Int64 // 502, I/O-classified failure (responses)
	badRequest     atomic.Int64 // 400
	notFound       atomic.Int64 // 404
	internal       atomic.Int64 // 500

	injected     atomic.Int64 // requests that ran with fault injection
	groupBuilds  atomic.Int64 // ScanGroup (re)builds
	breakerTrips atomic.Int64 // quarantine transitions
	ioFailures   atomic.Int64 // I/O-classified outcomes fed to breakers
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := &s.met
	header := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	counter := func(name, help string, v int64) {
		header(name, "counter", help)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	gauge := func(name, help string, v int64) {
		header(name, "gauge", help)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	counter("triangled_requests_total", "Requests that reached a handler.", m.requests.Load())
	counter("triangled_responses_ok_total", "Complete 200 responses.", m.ok.Load())
	counter("triangled_responses_partial_total", "200 responses flagged partial (deadline degradation).", m.partial.Load())
	counter("triangled_responses_aborted_total", "200 responses flagged aborted (space budget cutoff).", m.aborted.Load())
	counter("triangled_shed_total", "Requests shed at the door (429).", m.shed.Load())
	counter("triangled_budget_rejected_total", "Requests refused by the space-budget ledger (503).", m.budgetRejected.Load())
	counter("triangled_quarantined_total", "Requests refused by an open breaker (503).", m.quarantined.Load())
	counter("triangled_draining_total", "Requests refused during drain (503).", m.draining.Load())
	counter("triangled_deadline_total", "Requests that timed out with nothing usable (504).", m.deadline.Load())
	counter("triangled_canceled_total", "Requests whose client went away.", m.canceled.Load())
	counter("triangled_io_errors_total", "I/O-classified failures returned to clients (502).", m.ioErrors.Load())
	counter("triangled_bad_request_total", "Malformed requests (400).", m.badRequest.Load())
	counter("triangled_not_found_total", "Requests for unregistered graphs (404).", m.notFound.Load())
	counter("triangled_internal_total", "Internal errors (500).", m.internal.Load())
	counter("triangled_injected_total", "Requests executed with fault injection.", m.injected.Load())
	counter("triangled_group_builds_total", "ScanGroup builds and rebuilds.", m.groupBuilds.Load())
	counter("triangled_breaker_trips_total", "Breaker trips into quarantine.", m.breakerTrips.Load())
	counter("triangled_breaker_io_failures_total", "I/O outcomes fed to graph breakers.", m.ioFailures.Load())

	dc := stream.ReadDecodeCacheStats()
	counter("triangled_decode_cache_hits_total", "Decoded-block cache hits (blocks served without decode).", dc.Hits)
	counter("triangled_decode_cache_misses_total", "Decoded-block cache misses.", dc.Misses)
	counter("triangled_decode_cache_evictions_total", "Decoded blocks evicted under the byte budget.", dc.Evictions)
	gauge("triangled_decode_cache_bytes", "Bytes of decoded blocks resident in the cache.", dc.Bytes)
	gauge("triangled_decode_cache_entries", "Decoded blocks resident in the cache.", dc.Entries)

	busy, queued, admitted := s.adm.gauges()
	gauge("triangled_slots_busy", "Execution slots in use.", int64(busy))
	gauge("triangled_queue_depth", "Requests waiting for a slot.", int64(queued))
	gauge("triangled_admitted_space_words", "Sum of declared budgets of admitted requests.", admitted)
	gauge("triangled_inflight_requests", "Requests currently executing.", s.inflightN.Load())
	gauge("triangled_goroutines", "Goroutines in the process.", int64(runtime.NumGoroutine()))
	if s.draining.Load() {
		gauge("triangled_draining", "1 while the daemon is draining.", 1)
	} else {
		gauge("triangled_draining", "1 while the daemon is draining.", 0)
	}

	// Per-graph series. The text format wants each family as one contiguous
	// group under its HELP and TYPE, so the loop runs family by family, not
	// graph by graph.
	graphs := make([]graphStatus, len(s.names))
	for i, name := range s.names {
		graphs[i] = s.entries[name].snapshot()
	}
	header("triangled_graph_backend", "gauge", "Storage backend and decode engine of each opened graph (value always 1).")
	for _, st := range graphs {
		if st.Backend != "" {
			fmt.Fprintf(w, "triangled_graph_backend{graph=%q,backend=%q} 1\n", st.Name, st.Backend)
		}
	}
	for _, f := range []struct {
		name, typ, help string
		value           func(graphStatus) int64
	}{
		{"triangled_graph_scans_total", "counter", "Physical scans of the graph's current ScanGroup.",
			func(st graphStatus) int64 { return int64(st.Scans) }},
		{"triangled_graph_carried_total", "counter", "Fused requests carried by the graph's scheduler waves.",
			func(st graphStatus) int64 { return int64(st.Carried) }},
		{"triangled_graph_live_clients", "gauge", "Scheduler clients currently registered on the graph.",
			func(st graphStatus) int64 { return int64(st.Live) }},
		{"triangled_graph_peak_space_words", "gauge", "Peak concurrently retained words across the graph's fused runs.",
			func(st graphStatus) int64 { return st.PeakSpaceWords }},
	} {
		header(f.name, f.typ, f.help)
		for _, st := range graphs {
			fmt.Fprintf(w, "%s{graph=%q} %d\n", f.name, st.Name, f.value(st))
		}
	}
}
