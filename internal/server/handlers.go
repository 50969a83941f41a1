package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"degentri/internal/core"
	"degentri/internal/faultio"
	"degentri/internal/stream"
	"degentri/triangle"
)

// reqSpec is the decoded query surface shared by the data endpoints.
type reqSpec struct {
	graph   string
	seed    uint64
	epsilon float64
	kappa   int
	guess   int64
	mult    float64
	budget  int64 // declared MaxSpaceWords; always concrete after parsing
	timeout time.Duration
	inject  string // faultio plan spec, empty when absent
	k       int    // clique size, /cliques only
}

func (s *Server) parseSpec(r *http.Request) (reqSpec, error) {
	q := r.URL.Query()
	spec := reqSpec{
		graph:   q.Get("graph"),
		budget:  s.cfg.DefaultBudgetWords,
		timeout: s.cfg.DefaultTimeout,
		inject:  q.Get("inject"),
	}
	if spec.graph == "" {
		return spec, errors.New("missing required parameter: graph")
	}
	var err error
	if v := q.Get("seed"); v != "" {
		if spec.seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return spec, fmt.Errorf("bad seed %q: %v", v, err)
		}
	}
	if v := q.Get("epsilon"); v != "" {
		if spec.epsilon, err = strconv.ParseFloat(v, 64); err != nil || !(spec.epsilon > 0 && spec.epsilon < 1) {
			return spec, fmt.Errorf("bad epsilon %q: want a float in (0,1)", v)
		}
	}
	if v := q.Get("kappa"); v != "" {
		if spec.kappa, err = strconv.Atoi(v); err != nil || spec.kappa < 0 {
			return spec, fmt.Errorf("bad kappa %q: want a non-negative integer", v)
		}
	}
	if v := q.Get("guess"); v != "" {
		if spec.guess, err = strconv.ParseInt(v, 10, 64); err != nil || spec.guess < 0 {
			return spec, fmt.Errorf("bad guess %q: want a non-negative integer", v)
		}
	}
	if v := q.Get("multiplier"); v != "" {
		if spec.mult, err = strconv.ParseFloat(v, 64); err != nil || !(spec.mult >= 0 && spec.mult <= math.MaxFloat64) {
			return spec, fmt.Errorf("bad multiplier %q: want a finite non-negative float", v)
		}
	}
	if v := q.Get("budget"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil || b < 0 {
			return spec, fmt.Errorf("bad budget %q: want non-negative words", v)
		}
		if b > 0 {
			spec.budget = b
		}
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return spec, fmt.Errorf("bad timeout %q: want a positive duration like 500ms", v)
		}
		spec.timeout = min(d, s.cfg.MaxTimeout)
	}
	if v := q.Get("k"); v != "" {
		if spec.k, err = strconv.Atoi(v); err != nil {
			return spec, fmt.Errorf("bad k %q: %v", v, err)
		}
	}
	if spec.inject != "" {
		if !s.cfg.AllowInject {
			return spec, errors.New("fault injection is disabled on this server")
		}
		if _, err := faultio.ParsePlan(spec.inject); err != nil {
			return spec, fmt.Errorf("bad inject spec: %v", err)
		}
	}
	return spec, nil
}

// estimateResponse is the JSON shape of /estimate and /cliques results.
// Estimate is encoded by encoding/json with the shortest round-trip float
// representation, so clients can compare it bit-for-bit against library runs.
type estimateResponse struct {
	Graph            string  `json:"graph"`
	Kind             string  `json:"kind"`
	Seed             uint64  `json:"seed"`
	Estimate         float64 `json:"estimate"`
	Edges            int     `json:"edges"`
	DegeneracyBound  int     `json:"degeneracyBound"`
	DegeneracyApprox bool    `json:"degeneracyApprox"`
	Backend          string  `json:"backend,omitempty"`
	Passes           int     `json:"passes"`
	SpaceWords       int64   `json:"spaceWords"`
	Partial          bool    `json:"partial"`
	Aborted          bool    `json:"aborted"`
	Fused            bool    `json:"fused"`
	Injected         bool    `json:"injected,omitempty"`
	Retries          int     `json:"retries,omitempty"`
	ElapsedMS        float64 `json:"elapsedMs"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps a failure to its HTTP status and outcome counter. The
// taxonomy mirrors cmd/trianglecount's exit codes: overload and quarantine
// are the server's own (429/503), request-scoped aborts are 504, failures
// that indict the file are 502, and only genuinely unexplained errors 500.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	var status int
	var kind string
	switch {
	case errors.Is(err, errDraining):
		status, kind = http.StatusServiceUnavailable, "draining"
		s.met.draining.Add(1)
	case errors.Is(err, errShed):
		status, kind = http.StatusTooManyRequests, "shed"
		w.Header().Set("Retry-After", "1")
		s.met.shed.Add(1)
	case errors.Is(err, errBudget):
		status, kind = http.StatusServiceUnavailable, "budget"
		w.Header().Set("Retry-After", "1")
		s.met.budgetRejected.Add(1)
	case errors.Is(err, errQuarantined):
		status, kind = http.StatusServiceUnavailable, "quarantined"
		w.Header().Set("Retry-After", "1")
		s.met.quarantined.Add(1)
	case errors.Is(err, core.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		status, kind = http.StatusGatewayTimeout, "deadline"
		s.met.deadline.Add(1)
	case errors.Is(err, context.Canceled):
		status, kind = 499, "canceled" // nginx convention: client closed request
		s.met.canceled.Add(1)
	case isIOError(err):
		status, kind = http.StatusBadGateway, "io"
		s.met.ioErrors.Add(1)
	default:
		status, kind = http.StatusInternalServerError, "internal"
		s.met.internal.Add(1)
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Kind: kind})
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.met.badRequest.Add(1)
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Kind: "bad-request"})
}

// admit runs the common front of every data request: the draining gate,
// graph lookup, inflight accounting, deadline scoping, and admission. On
// success it returns the entry plus a finish func the handler must defer.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, spec reqSpec) (e *graphEntry, ctx context.Context, finish func(), ok bool) {
	s.met.requests.Add(1)
	if s.draining.Load() {
		s.writeErr(w, errDraining)
		return nil, nil, nil, false
	}
	e, found := s.entries[spec.graph]
	if !found {
		s.met.notFound.Add(1)
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: fmt.Sprintf("unknown graph %q", spec.graph), Kind: "not-found"})
		return nil, nil, nil, false
	}
	s.inflightN.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), spec.timeout)
	// The drain's hard phase cancels baseCtx; tying every request scope to
	// it aborts stragglers on the private (injected) path too, which never
	// touch a group scheduler.
	stop := context.AfterFunc(s.baseCtx, cancel)
	release, err := s.adm.enter(ctx, spec.budget)
	if err != nil {
		stop()
		cancel()
		s.inflightN.Add(-1)
		s.writeErr(w, err)
		return nil, nil, nil, false
	}
	finish = func() {
		release()
		stop()
		cancel()
		s.inflightN.Add(-1)
	}
	return e, ctx, finish, true
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	spec, err := s.parseSpec(r)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	e, ctx, finish, ok := s.admit(w, r, spec)
	if !ok {
		return
	}
	defer finish()
	start := time.Now()

	opts := triangle.Options{
		Epsilon:          spec.epsilon,
		Degeneracy:       spec.kappa,
		TriangleGuess:    spec.guess,
		Seed:             spec.seed,
		MaxSpaceWords:    spec.budget,
		SampleMultiplier: spec.mult,
	}

	var res triangle.Result
	if spec.inject != "" {
		// Injected faults run on a private stream: a synthetic fault must
		// not perturb the shared scans other requests ride, and its outcome
		// must not count against the graph's breaker (it says nothing about
		// the file). This path pays its own scans — that is the point: it
		// exercises the unfused retry machinery end to end.
		s.met.injected.Add(1)
		plan, _ := faultio.ParsePlan(spec.inject) // validated in parseSpec
		opts.Workers = s.cfg.Workers
		opts.RetryAttempts = s.cfg.RetryAttempts
		opts.WrapStream = func(st stream.Stream) stream.Stream { return faultio.New(st, plan) }
		res, err = triangle.EstimateFileCtx(ctx, e.path, opts)
	} else {
		var g *triangle.ScanGroup
		var release func()
		g, release, err = e.acquire(ctx)
		if err == nil {
			res, err = g.Estimate(ctx, opts)
			e.recordOutcome(err)
			release()
		}
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	switch {
	case res.Partial:
		s.met.partial.Add(1)
	case res.Aborted:
		s.met.aborted.Add(1)
	default:
		s.met.ok.Add(1)
	}
	writeJSON(w, http.StatusOK, estimateResponse{
		Graph:            spec.graph,
		Kind:             "estimate",
		Seed:             spec.seed,
		Estimate:         res.Estimate,
		Edges:            res.Edges,
		DegeneracyBound:  res.DegeneracyBound,
		DegeneracyApprox: res.DegeneracyApprox,
		Backend:          res.Backend,
		Passes:           res.Passes,
		SpaceWords:       res.SpaceWords,
		Partial:          res.Partial,
		Aborted:          res.Aborted,
		Fused:            spec.inject == "",
		Injected:         spec.inject != "",
		Retries:          res.Retries,
		ElapsedMS:        float64(time.Since(start).Microseconds()) / 1e3,
	})
}

func (s *Server) handleCliques(w http.ResponseWriter, r *http.Request) {
	spec, err := s.parseSpec(r)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if spec.k < 3 || spec.k > 8 {
		s.badRequest(w, errors.New("k must be in [3,8]"))
		return
	}
	if spec.guess < 1 {
		s.badRequest(w, errors.New("cliques requires guess ≥ 1 (a lower bound on the k-clique count)"))
		return
	}
	if spec.inject != "" {
		s.badRequest(w, errors.New("inject is only supported on /estimate"))
		return
	}
	e, ctx, finish, ok := s.admit(w, r, spec)
	if !ok {
		return
	}
	defer finish()
	start := time.Now()

	g, release, err := e.acquire(ctx)
	var res triangle.Result
	if err == nil {
		res, err = g.EstimateCliques(ctx, triangle.CliqueOptions{
			K:                spec.k,
			Epsilon:          spec.epsilon,
			Degeneracy:       spec.kappa,
			CliqueGuess:      spec.guess,
			SampleMultiplier: spec.mult,
			Seed:             spec.seed,
		})
		e.recordOutcome(err)
		release()
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.met.ok.Add(1)
	writeJSON(w, http.StatusOK, estimateResponse{
		Graph:            spec.graph,
		Kind:             "cliques",
		Seed:             spec.seed,
		Estimate:         res.Estimate,
		Edges:            res.Edges,
		DegeneracyBound:  res.DegeneracyBound,
		DegeneracyApprox: res.DegeneracyApprox,
		Backend:          res.Backend,
		Passes:           res.Passes,
		SpaceWords:       res.SpaceWords,
		Fused:            true,
		ElapsedMS:        float64(time.Since(start).Microseconds()) / 1e3,
	})
}

type degeneracyResponse struct {
	Graph      string  `json:"graph"`
	Kind       string  `json:"kind"`
	Kappa      int     `json:"kappa"`
	LowerBound int     `json:"lowerBound"`
	Passes     int     `json:"passes"`
	SpaceWords int64   `json:"spaceWords"`
	ElapsedMS  float64 `json:"elapsedMs"`
}

func (s *Server) handleDegeneracy(w http.ResponseWriter, r *http.Request) {
	spec, err := s.parseSpec(r)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if spec.inject != "" {
		s.badRequest(w, errors.New("inject is only supported on /estimate"))
		return
	}
	e, ctx, finish, ok := s.admit(w, r, spec)
	if !ok {
		return
	}
	defer finish()
	start := time.Now()

	g, release, err := e.acquire(ctx)
	var k triangle.GroupKappa
	if err == nil {
		k, err = g.Degeneracy(ctx)
		e.recordOutcome(err)
		release()
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.met.ok.Add(1)
	writeJSON(w, http.StatusOK, degeneracyResponse{
		Graph:      spec.graph,
		Kind:       "degeneracy",
		Kappa:      k.Kappa,
		LowerBound: k.LowerBound,
		Passes:     k.Passes,
		SpaceWords: k.SpaceWords,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1e3,
	})
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	out := make([]graphStatus, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, s.entries[name].snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is liveness: 200 as long as the process serves HTTP, even
// while draining (the process is alive; it is readiness that flips).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime=%s\n", time.Since(s.started).Round(time.Second))
}

// handleReadyz is readiness: 503 once draining so load balancers stop
// routing here, 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
