package stream

import "sync"

// SharedMeter accounts for the words of working memory an estimator
// retains. The paper's space bounds count machine words (edges, counters,
// samples), so every estimator in this repository charges its retained state
// to a meter: a sampled edge costs 2 words, a vertex counter 2 words (key +
// count), a memo-table entry a handful of words, and so on. The meter tracks
// both the current and the peak charge; results report the peak.
//
// Meters form a tree: a meter made with a parent mirrors every change into
// it, so its parent's peak is the largest number of words the whole subtree
// retained at any instant. This is the honest space figure for fusion:
// concurrently-live runs add up, they do not take a sequential max. A run on
// the scan scheduler charges its client's node of the scheduler's tree
// (sched.Client.Meter), so a geometric search's node sees its probes, a
// session's its trials, and the scheduler's root everything fused onto it.
// A run outside the scheduler charges a root of its own. A meter is safe for
// concurrent use.
type SharedMeter struct {
	parent  *SharedMeter
	mu      sync.Mutex
	current int64
	peak    int64
}

// NewSharedMeter returns a zeroed meter that mirrors into parent (nil: a
// root).
func NewSharedMeter(parent *SharedMeter) *SharedMeter { return &SharedMeter{parent: parent} }

// add applies a (possibly negative) delta to g and every meter above it.
func (g *SharedMeter) add(n int64) {
	for ; g != nil; g = g.parent {
		g.mu.Lock()
		g.current += n
		if g.current > g.peak {
			g.peak = g.current
		}
		g.mu.Unlock()
	}
}

// Charge adds n words to the current usage. A negative n panics; use Release
// to return words.
func (g *SharedMeter) Charge(n int64) {
	if n < 0 {
		panic("stream: negative charge; use Release")
	}
	g.add(n)
}

// Release returns n words charged earlier. A negative n panics; use Charge.
func (g *SharedMeter) Release(n int64) {
	if n < 0 {
		panic("stream: negative release; use Charge")
	}
	g.add(-n)
}

// Peak returns the maximum words ever retained simultaneously.
func (g *SharedMeter) Peak() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Current returns the words currently charged.
func (g *SharedMeter) Current() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.current
}

// Cost constants used consistently by estimators when charging the meter.
const (
	// WordsPerEdge is the cost of storing one edge (two vertex IDs).
	WordsPerEdge = 2
	// WordsPerCounter is the cost of one keyed counter (key + value).
	WordsPerCounter = 2
	// WordsPerScalar is the cost of a standalone scalar accumulator.
	WordsPerScalar = 1
)
