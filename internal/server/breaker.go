package server

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit: closed (healthy), open
// (quarantined until a backoff deadline), half-open (one probe in flight).
type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case bkOpen:
		return "open"
	case bkHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker quarantines one graph file after repeated non-transient I/O
// failures. The scan layer already heals *transient* faults with bounded
// retry; what reaches the breaker are failures that survived retry —
// truncated or corrupt files, vanished paths, permission changes. Tripping
// costs the graph its warm ScanGroup; while open, requests are rejected
// instantly instead of each rediscovering the same broken file with a full
// (failing) scan. After a backoff the next request is let through
// as a probe (half-open, one at a time): success closes the breaker,
// another I/O failure reopens it with doubled backoff up to a cap.
//
// Only I/O outcomes move the state. Deadlines, cancellations, and shed
// requests say nothing about the file and are recorded as neutral: in
// half-open they return the breaker to open with the deadline unchanged, so
// the next request probes again immediately.
type breaker struct {
	threshold  int           // consecutive I/O failures that trip
	backoff0   time.Duration // first quarantine period
	backoffMax time.Duration
	now        func() time.Time

	mu      sync.Mutex
	state   breakerState
	fails   int // consecutive I/O failures while closed
	until   time.Time
	backoff time.Duration // next quarantine period
	trips   int64
}

func newBreaker(threshold int, backoff0, backoffMax time.Duration, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, backoff0: backoff0, backoffMax: backoffMax, now: now, backoff: backoff0}
}

// allow reports whether a cold acquire of the graph may proceed. When the
// breaker is open and the backoff has elapsed, the caller becomes the probe
// (half-open admits exactly one).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkClosed:
		return true
	case bkOpen:
		if !b.now().Before(b.until) {
			b.state = bkHalfOpen
			return true
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// onSuccess records a healthy interaction with the file: it closes the
// breaker and resets the failure streak and backoff.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = bkClosed
	b.fails = 0
	b.backoff = b.backoff0
}

// onIOFailure records a non-transient I/O failure and reports whether the
// breaker tripped open on this call (the caller then quarantines the warm
// group, if any).
func (b *breaker) onIOFailure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == bkHalfOpen {
		// The probe failed: reopen, doubling the quarantine.
		b.open()
		return true
	}
	b.fails++
	if b.state == bkClosed && b.fails >= b.threshold {
		b.open()
		return true
	}
	return false
}

// onNeutral records an outcome that says nothing about the file (deadline,
// cancellation, internal error). A half-open probe slot is handed back with
// the deadline already elapsed, so the next request re-probes immediately.
func (b *breaker) onNeutral() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == bkHalfOpen {
		b.state = bkOpen
	}
}

// open transitions to quarantine; callers hold b.mu.
func (b *breaker) open() {
	b.state = bkOpen
	b.fails = 0
	b.until = b.now().Add(b.backoff)
	b.backoff *= 2
	if b.backoff > b.backoffMax {
		b.backoff = b.backoffMax
	}
	b.trips++
}

// snapshot returns the state name, how long until the next probe is
// admitted (zero when not open), and the cumulative trip count.
func (b *breaker) snapshot() (state string, retryIn time.Duration, trips int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == bkOpen {
		if d := b.until.Sub(b.now()); d > 0 {
			retryIn = d
		}
	}
	return b.state.String(), retryIn, b.trips
}
