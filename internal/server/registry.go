package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"degentri/internal/core"
	"degentri/internal/stream"
	"degentri/triangle"
)

// errQuarantined brands requests against a graph whose breaker is open.
var errQuarantined = errors.New("server: graph quarantined after repeated I/O failures")

// groupRef is one generation of a graph's warm ScanGroup. Generations are
// refcounted: a breaker trip retires the current generation immediately (new
// requests rebuild or get rejected), but the underlying stream is only
// closed once the last in-flight request releases it.
type groupRef struct {
	g       *triangle.ScanGroup
	cancel  context.CancelFunc // the group's scheduler lifetime
	refs    int
	retired bool
	closed  bool
}

// graphEntry is the registry's per-graph record: the path, the current warm
// generation (nil when cold), a single-flight latch so concurrent cold
// requests build one group instead of racing N opens (only a text file's
// open scans it, to count its edges; a .bex group's peel makes its own
// vertex-ID pass), and the breaker guarding rebuilds.
type graphEntry struct {
	name string
	path string
	srv  *Server

	mu       sync.Mutex
	cur      *groupRef
	building chan struct{} // non-nil while one request opens the group
	br       *breaker
}

// acquire returns the graph's warm ScanGroup, building it if the graph is
// cold (single-flight; peers wait on the build instead of duplicating it).
// The returned release must be called when the request no longer touches the
// group. A warm group is handed out without consulting the breaker — the
// breaker gates rebuilds; a warm group is evicted by quarantine(), not by
// refusing readers.
func (e *graphEntry) acquire(ctx context.Context) (*triangle.ScanGroup, func(), error) {
	for {
		e.mu.Lock()
		if e.cur != nil && !e.cur.retired {
			r := e.cur
			r.refs++
			e.mu.Unlock()
			return r.g, func() { e.release(r) }, nil
		}
		if e.building != nil {
			wait := e.building
			e.mu.Unlock()
			select {
			case <-wait:
				continue // re-check: the build succeeded or this caller rebuilds
			case <-ctx.Done():
				return nil, nil, fmt.Errorf("server: waiting for graph open: %w", context.Cause(ctx))
			}
		}
		// Cold and nobody building: the breaker decides whether this request
		// may touch the file. In half-open state exactly one request gets
		// through as the probe; its build outcome moves the breaker.
		if !e.br.allow() {
			e.mu.Unlock()
			_, retryIn, _ := e.br.snapshot()
			return nil, nil, fmt.Errorf("%w (retry in %v)", errQuarantined, retryIn)
		}
		done := make(chan struct{})
		e.building = done
		e.mu.Unlock()

		gctx, cancel := context.WithCancel(e.srv.baseCtx)
		g, err := triangle.OpenScanGroup(gctx, e.path, triangle.GroupOptions{
			Workers:       e.srv.cfg.Workers,
			RetryAttempts: e.srv.cfg.RetryAttempts,
			DecodeCache:   e.srv.cfg.decodeCacheEnabled(),
		})

		e.mu.Lock()
		e.building = nil
		if err != nil {
			e.mu.Unlock()
			cancel()
			close(done)
			e.recordOutcome(err)
			return nil, nil, err
		}
		r := &groupRef{g: g, cancel: cancel, refs: 1}
		e.cur = r
		e.mu.Unlock()
		close(done)
		e.br.onSuccess()
		e.srv.met.groupBuilds.Add(1)
		return r.g, func() { e.release(r) }, nil
	}
}

func (e *graphEntry) release(r *groupRef) {
	e.mu.Lock()
	r.refs--
	doClose := r.retired && r.refs == 0 && !r.closed
	if doClose {
		r.closed = true
	}
	e.mu.Unlock()
	if doClose {
		r.cancel()
		r.g.Close()
	}
}

// quarantine retires the current generation (if any): new requests stop
// seeing it immediately; the stream closes when in-flight riders drain.
func (e *graphEntry) quarantine() {
	e.mu.Lock()
	r := e.cur
	e.cur = nil
	var doClose bool
	if r != nil {
		r.retired = true
		doClose = r.refs == 0 && !r.closed
		if doClose {
			r.closed = true
		}
	}
	e.mu.Unlock()
	if doClose {
		r.cancel()
		r.g.Close()
	}
}

// recordOutcome feeds one shared-group request outcome to the breaker.
// Injected-fault requests never reach here: a synthetic fault says nothing
// about the file, so they run on a private stream and skip the breaker.
func (e *graphEntry) recordOutcome(err error) {
	switch {
	case err == nil:
		e.br.onSuccess()
	case isIOError(err):
		e.srv.met.ioFailures.Add(1)
		if e.br.onIOFailure() {
			e.quarantine()
			e.srv.met.breakerTrips.Add(1)
		}
	default:
		e.br.onNeutral()
	}
}

// snapshot returns the entry's state for /graphs and /metrics without
// touching the file.
func (e *graphEntry) snapshot() graphStatus {
	e.mu.Lock()
	r := e.cur
	building := e.building != nil
	e.mu.Unlock()
	st := graphStatus{Name: e.name, Path: e.path}
	st.Breaker, st.RetryIn, st.BreakerTrips = func() (string, string, int64) {
		s, d, n := e.br.snapshot()
		if d > 0 {
			return s, d.String(), n
		}
		return s, "", n
	}()
	switch {
	case r != nil:
		st.State = "ready"
		// Status and /metrics show the decorated backend ("bex2/ssse3+cache")
		// so operators can see the active decode engine at a glance.
		st.Backend = stream.DescribeBackend(r.g.Backend(), e.srv.cfg.decodeCacheEnabled())
		st.Edges = r.g.M()
		st.Scans = r.g.Scans()
		st.Carried = r.g.Carried()
		st.Live = r.g.Live()
		st.Retries = r.g.Retries()
		st.PeakSpaceWords = r.g.PeakSpaceWords()
	case building:
		st.State = "opening"
	case st.Breaker != "closed":
		st.State = "quarantined"
	default:
		st.State = "cold"
	}
	return st
}

// graphStatus is the JSON shape of one /graphs entry.
type graphStatus struct {
	Name           string `json:"name"`
	Path           string `json:"path"`
	State          string `json:"state"`
	Backend        string `json:"backend,omitempty"`
	Breaker        string `json:"breaker"`
	RetryIn        string `json:"retryIn,omitempty"`
	BreakerTrips   int64  `json:"breakerTrips,omitempty"`
	Edges          int    `json:"edges,omitempty"`
	Scans          int    `json:"scans,omitempty"`
	Carried        int    `json:"carried,omitempty"`
	Live           int    `json:"live,omitempty"`
	Retries        int    `json:"retries,omitempty"`
	PeakSpaceWords int64  `json:"peakSpaceWords,omitempty"`
}

// isIOError classifies failures that indict the file itself — the same
// class cmd/trianglecount maps to exit code 3. Deadlines, aborts, and
// cancellations are explicitly not I/O: they indict the request, not the
// graph.
func isIOError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, core.ErrDeadline) || errors.Is(err, core.ErrAborted) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	var pathErr *fs.PathError
	return errors.Is(err, stream.ErrTruncated) ||
		errors.Is(err, stream.ErrCorruptHeader) ||
		errors.Is(err, stream.ErrCorruptBlock) ||
		errors.Is(err, stream.ErrTransient) || // transient only until the retry budget ran out
		errors.Is(err, triangle.ErrNoEdges) ||
		errors.Is(err, fs.ErrNotExist) ||
		errors.Is(err, fs.ErrPermission) ||
		errors.As(err, &pathErr)
}
