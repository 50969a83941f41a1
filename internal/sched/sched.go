// Package sched is the pass-fusion scan scheduler: one physical scan of the
// stream serves every logical pass that is pending at the moment the scan
// starts. Bera–Seshadhri counts passes as a first-class cost, and on
// file-backed streams wall-clock is dominated by physical scans — yet
// logically-independent work (estimator instances of one geometric-search
// step, independent trials of an experiment, degeneracy-peel rounds running
// next to another client's passes) used to scan the stream once each.
//
// # Model
//
// A Scheduler owns one stream of exactly m edges. Work registers as Clients;
// each Client submits logical passes through the passes.Executor interface
// (RunPass blocks until the pass has been executed). Data dependencies are
// expressed by program order: a client submits pass k+1 only after pass k
// returned, so any two passes pending at once are — by construction —
// dependency-free and safe to fuse. The scheduler launches a physical scan
// ("wave") as soon as every live client is blocked in RunPass, executing all
// pending requests against the batches of a single stream.ShardedScan
// pass: per batch, each fused request's process runs in submission order;
// per shard, each request's merge runs in ascending shard order, exactly as
// if the request had scanned alone.
//
// Every pass of the repository runs on a scheduler. A standalone run owns one
// (Open, or passes.NewDirect when the caller knows m); a run that is its
// scheduler's only client scans once per pass.
//
// # Client trees
//
// Work that hands control to sub-runs (fused trials of one estimate, the
// speculative probes of a geometric search, its confirmation run) forms a
// tree of clients: Client.Fork registers the children before any of them
// starts, takes the parent out of the wave barrier while they live, and
// re-admits the parent under the scheduler lock inside the last child's
// Done. No instant passes at which a subtree is absent from the barrier, so
// its peers cannot slip a wave past it: waves carry the same passes on every
// run, and the physical scan count of fused work is a deterministic function
// of its inputs.
//
// # Why fusion cannot change results
//
// The repository's (seed, passKey, mergeKey) contract (internal/passes) keys
// every random draw inside a pass by stable indices — seed, pass key,
// instance, shard — never by scan identity or arrival time. A fused request
// therefore sees the same per-shard edge sequence and draws the same values
// as it would on a private scan: results are bit-identical, which the
// fused-vs-unfused equivalence suites pin across worker counts and backends.
//
// # Accounting
//
// Scans() counts physical scans (waves, plus Open's counting scan for a
// stream that does not know its length); each Client counts its own logical
// passes — the paper's metric — via Passes(). Space follows the client tree:
// every client carries a meter node (Client.Meter) under its parent's, and a
// root's hangs under the scheduler's (Scheduler.Meter). A client carries at
// most one run, which charges its words to the client's node directly, so a
// run's node holds that run's words alone and every node above reports the
// peak of *concurrently* retained words below it, not a sequential max. A
// root's Done hands its whole tree's words back to the scheduler's meter:
// fused runs finish in thread-timing order, so releasing earlier would make
// a peak depend on timing.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"degentri/internal/graph"
	"degentri/internal/stream"
)

// request is one submitted logical pass waiting for (or riding) a wave.
type request struct {
	ctx     context.Context // the submitting client's context
	process func(shard int, batch []graph.Edge) error
	merge   func(shard int) error

	// mu guards err: a request's process may fail from any shard worker.
	// Once failed, the request is skipped for the rest of the wave while the
	// other fused requests continue.
	mu   sync.Mutex
	err  error
	done chan error
}

func (r *request) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *request) failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err != nil
}

// Scheduler fuses logical passes over one shared stream. Create one with New,
// register Clients, and let each client run its passes; the zero value is not
// usable. A Scheduler must own the stream exclusively: nothing else may Reset
// or read it while any client is live.
type Scheduler struct {
	src     stream.Stream
	m       int
	workers int
	ctx     context.Context    // cancels every wave; usually the request's root
	retry   stream.RetryPolicy // transient-I/O healing of the physical scans

	mu      sync.Mutex
	active  int        // live clients that are computing: not in RunPass, not waiting in Fork
	live    int        // registered clients that have not called Done
	pending []*request // submitted, not yet carried by a wave
	running bool       // a wave is executing
	scans   int
	carried int // cumulative requests served across all waves
	retries int
	meter   *stream.SharedMeter

	n      int  // the stream's vertex count, read when the scheduler is made
	nKnown bool // the stream reported n (stream.VerticesOf)
}

// Open returns a scheduler over src, the one way a standalone run or a
// session reaches its stream. A stream that knows its length is not scanned.
// One that does not (a text file before its first pass) is counted by one
// stream.CountEdgesCtx scan. That scan also lets a text write its .bex v2
// copy, so the scheduler's scans can run on concurrent workers, and the
// text's parse finds its vertex count, which the scheduler then records
// (see NewCtx). The opening scan counts in Scans and its whole-pass retries
// in Retries. workers and retry are NewCtx's.
//
// A failed count returns its error together with a scheduler that only
// accounts for it (one scan in Scans, the count's retries in Retries); it
// must not run passes.
func Open(ctx context.Context, src stream.Stream, workers int, retry stream.RetryPolicy) (*Scheduler, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, known := src.Len()
	if known {
		return NewCtx(ctx, src, m, workers, retry), nil
	}
	m, retries, err := stream.CountEdgesCtx(ctx, src, retry)
	s := NewCtx(ctx, src, m, workers, retry)
	s.scans, s.retries = 1, retries
	return s, err
}

// New returns a scheduler over a stream of exactly m edges. workers bounds
// the shard workers of each fused scan; <= 0 selects GOMAXPROCS, the
// repository-wide convention (Config.Workers). The scheduler is
// uncancellable and does not retry; NewCtx is the fault-tolerant
// constructor.
func New(src stream.Stream, m, workers int) *Scheduler {
	return NewCtx(context.Background(), src, m, workers, stream.RetryPolicy{})
}

// NewCtx returns a scheduler whose waves abort when ctx is cancelled (failing
// every fused request of the running wave — the scheduler's context is the
// lifetime of the whole group; per-client cancellation goes through
// NewClientCtx instead) and heal transient I/O errors under the given retry
// policy. It records the vertex count src reports now (stream.VerticesOf),
// which every client hands on as Vertices; a text reports one only after
// the pass that counted it.
func NewCtx(ctx context.Context, src stream.Stream, m, workers int, retry stream.RetryPolicy) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Scheduler{src: src, m: m, workers: workers, ctx: ctx, retry: retry, meter: stream.NewSharedMeter(nil)}
	s.n, s.nKnown = stream.VerticesOf(src)
	return s
}

// M returns the stream length the scheduler's scans run over.
func (s *Scheduler) M() int { return s.m }

// Scans returns how many physical scans the scheduler has performed: its
// waves, plus Open's counting scan when it made one.
func (s *Scheduler) Scans() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scans
}

// Carried returns the cumulative number of fused requests the scheduler's
// waves have served: Carried()/Scans() is the average fused width, the
// coalescing ratio a long-lived service reports — N clients over one hot
// stream should push it well above 1.
func (s *Scheduler) Carried() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.carried
}

// Live returns how many registered clients have not yet called Done. A
// scheduler whose owner has quiesced must report zero: a positive value
// after every request finished means a leaked client, which would hold back
// every future wave.
func (s *Scheduler) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Retries returns how many transient-I/O recoveries the scheduler's physical
// scans, Open's counting scan included, have performed. Healed scans are
// bit-identical to undisturbed ones, so this is resource accounting only.
func (s *Scheduler) Retries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries
}

// Meter returns the root of the scheduler's space-meter tree: every root
// client's meter mirrors into it, so its peak is the words retained
// simultaneously across all fused runs.
func (s *Scheduler) Meter() *stream.SharedMeter { return s.meter }

// Client is one logical stream of passes. It implements passes.Executor
// (structurally — see the compile-time assertion in the tests), so estimator
// entry points that accept an executor run fused without knowing it.
//
// A Client is used by one goroutine at a time. Every registered client MUST
// eventually call Done: a client that is neither blocked in RunPass nor
// waiting in Fork holds back every wave.
type Client struct {
	s      *Scheduler
	ctx    context.Context
	parent *Client // nil for a root (NewClient, NewClientCtx)
	meter  *stream.SharedMeter
	kids   int // children of a running Fork not yet Done; guarded by s.mu
	passes int
	done   bool
}

// NewClient registers a new root client. The client is born live: waves wait
// for it until it submits a pass, forks, or finishes. Registering all clients
// of a group before any of them starts submitting is what guarantees their
// passes fuse from the first wave (Fork does it for its children). The
// client inherits the scheduler's context; NewClientCtx attaches a narrower
// per-request one.
func (s *Scheduler) NewClient() *Client {
	return s.NewClientCtx(s.ctx)
}

// NewClientCtx registers a client with its own context — the per-request
// cancellation scope of a fused group. Cancelling it fails only this client's
// pending and future passes (the wave drops the request and carries on, the
// same isolation as a process error); the other fused clients complete
// bit-identically to their unfused runs.
func (s *Scheduler) NewClientCtx(ctx context.Context) *Client {
	if ctx == nil {
		ctx = s.ctx
	}
	s.mu.Lock()
	s.active++
	s.live++
	s.mu.Unlock()
	return &Client{s: s, ctx: ctx, meter: stream.NewSharedMeter(s.meter)}
}

// M implements passes.Executor.
func (c *Client) M() int { return c.s.m }

// Vertices implements passes.Executor: the vertex count the scheduler's
// stream reported when the scheduler was made.
func (c *Client) Vertices() (int, bool) { return c.s.n, c.s.nKnown }

// Passes implements passes.Executor: the logical passes this client ran.
func (c *Client) Passes() int { return c.passes }

// Context implements passes.Executor: the client's cancellation scope.
func (c *Client) Context() context.Context { return c.ctx }

// Retries implements passes.Executor. Physical scans are shared, so a
// recovery on a fused scan is visible to every client riding it; the value is
// the scheduler-wide count.
func (c *Client) Retries() int { return c.s.Retries() }

// Meter implements passes.Executor: the client's node of the space-meter
// tree, under its parent's node (a root's is under Scheduler.Meter). The run
// on the client charges it directly, and a forked child's words reach it
// too, so its peak is the words retained concurrently by the client's whole
// subtree.
func (c *Client) Meter() *stream.SharedMeter { return c.meter }

// RunPass implements passes.Executor: it submits the pass and blocks until a
// wave has carried it. The pass observes the engine contract exactly as if
// it had the scan to itself. A client whose context is already cancelled
// fails fast without joining a wave (the other clients' barrier is
// unaffected — this client still counts live until Done).
func (c *Client) RunPass(process func(shard int, batch []graph.Edge) error, merge func(shard int) error) error {
	if c.done {
		return fmt.Errorf("sched: RunPass on a finished client")
	}
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("sched: pass not started: %w", context.Cause(c.ctx))
	}
	c.passes++
	req := &request{ctx: c.ctx, process: process, merge: merge, done: make(chan error, 1)}
	s := c.s
	s.mu.Lock()
	// The submitting client is blocked from here on: it no longer counts
	// against the wave barrier. The wave that serves this request re-adds it
	// before signaling.
	s.active--
	s.pending = append(s.pending, req)
	s.maybeLaunchLocked()
	s.mu.Unlock()
	return <-req.done
}

// Fork runs fn(i, kid) on n new child clients concurrently and returns once
// every call has returned and its child is Done (Fork calls Done). The
// children are registered before any of them starts, so their passes fuse
// from the first wave, and the parent leaves the wave barrier while they
// live: it is blocked here, not computing. The last child's Done re-admits
// the parent under the scheduler lock, so no wave can start in between: the
// parent's peers wait for its next pass as if it had never left. Children
// inherit the parent's context, and each child's meter hangs under the
// parent's. A child may Fork in turn.
func (c *Client) Fork(n int, fn func(i int, kid *Client)) {
	if n <= 0 {
		return
	}
	if c.done {
		panic("sched: Fork on a finished client")
	}
	s := c.s
	kids := make([]*Client, n)
	for i := range kids {
		kids[i] = &Client{s: s, ctx: c.ctx, parent: c, meter: stream.NewSharedMeter(c.meter)}
	}
	s.mu.Lock()
	s.live += n
	s.active += n - 1 // the children compute in the parent's place
	c.kids = n
	s.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(n)
	for i, kid := range kids {
		go func() {
			defer wg.Done()
			defer kid.Done()
			fn(i, kid)
		}()
	}
	wg.Wait()
}

// Done unregisters the client. Idempotent. The last child of a Fork to
// finish re-admits its parent to the wave barrier; a root hands its whole
// tree's words back to the scheduler's meter.
func (c *Client) Done() {
	if c.done {
		return
	}
	c.done = true
	if c.parent == nil {
		c.meter.Release(c.meter.Current())
	}
	s := c.s
	s.mu.Lock()
	s.active--
	s.live--
	if p := c.parent; p != nil {
		if p.kids--; p.kids == 0 {
			s.active++
		}
	}
	s.maybeLaunchLocked()
	s.mu.Unlock()
}

// maybeLaunchLocked fires a wave when no live client is still computing:
// every pass that can be pending is pending, so the wave carries the maximal
// dependency-free set. Callers hold s.mu.
func (s *Scheduler) maybeLaunchLocked() {
	if s.running || len(s.pending) == 0 || s.active > 0 {
		return
	}
	batch := s.pending
	s.pending = nil
	s.running = true
	s.scans++
	s.carried += len(batch)
	go s.wave(batch)
}

// wave executes one fused physical scan and delivers results. Served clients
// rejoin the barrier count *before* any of them is signaled, so a fast client
// cannot slip a solo wave in while its fusion partners are still waking up —
// this is what keeps lockstep groups fused wave after wave. The next wave (for
// requests that accumulated from other clients while this one ran) launches
// from the next RunPass/Done call once the barrier drains again.
func (s *Scheduler) wave(batch []*request) {
	scanErr := s.scan(batch)
	s.mu.Lock()
	// Every request belongs to a distinct client (a client has at most one
	// outstanding RunPass), and each of them is about to resume computing.
	s.active += len(batch)
	s.running = false
	s.mu.Unlock()
	for _, r := range batch {
		r.mu.Lock()
		err := r.err
		r.mu.Unlock()
		if err == nil {
			err = scanErr
		}
		r.done <- err
	}
}

// scan runs one physical pass fanning every batch to all fused requests (in
// submission order) and every shard merge likewise. A request whose own
// process/merge fails — or whose client context is cancelled mid-wave — is
// dropped from the rest of the scan while the other fused requests continue;
// an engine-level error (stream read, length mismatch, scheduler-context
// cancellation) fails the scan for every request. Transient read errors are
// healed inside the engine under the scheduler's retry policy, invisible to
// the riding requests.
func (s *Scheduler) scan(batch []*request) error {
	// live skips the per-batch context poll for requests on the scheduler's
	// own context: the engine already checks it every batch.
	live := func(r *request, shard int) bool {
		if r.failed() {
			return false
		}
		if r.ctx != s.ctx && r.ctx.Err() != nil {
			r.fail(fmt.Errorf("sched: pass abandoned at shard %d/%d: %w",
				shard, stream.ActiveShards(s.m), context.Cause(r.ctx)))
			return false
		}
		return true
	}
	process := func(shard int, edges []graph.Edge) error {
		for _, r := range batch {
			if !live(r, shard) {
				continue
			}
			if err := r.process(shard, edges); err != nil {
				r.fail(err)
			}
		}
		return nil
	}
	merge := func(shard int) error {
		for _, r := range batch {
			if !live(r, shard) {
				continue
			}
			if err := r.merge(shard); err != nil {
				r.fail(err)
			}
		}
		return nil
	}
	_, retries, err := stream.ShardedScan(s.ctx, s.src, s.m, s.workers, s.retry, process, merge)
	if retries > 0 {
		s.mu.Lock()
		s.retries += retries
		s.mu.Unlock()
	}
	return err
}
