package stream

import (
	"fmt"
	"sync"
)

// SpaceMeter accounts for the words of working memory an estimator retains.
// The paper's space bounds count machine words (edges, counters, samples), so
// every estimator in this repository charges its retained state to a meter:
// a sampled edge costs 2 words, a vertex counter 2 words (key + count), a
// memo-table entry a handful of words, and so on. The meter tracks both the
// current and the peak charge; experiment tables report the peak.
//
// SpaceMeter is not safe for concurrent use; estimators are single-threaded
// by construction (a stream pass is inherently sequential).
type SpaceMeter struct {
	current int64
	peak    int64
	parent  *SharedMeter
}

// NewSpaceMeter returns a zeroed meter.
func NewSpaceMeter() *SpaceMeter { return &SpaceMeter{} }

// Tee mirrors every subsequent Charge/Release of this meter into the given
// shared group meter (nil: none). A fused run tees its private meter into
// its scheduler client's node of the group-meter tree (sched.Client.Meter),
// so that the *concurrent* peak, the words retained simultaneously across
// all logically-parallel runs, is accounted at every level of the tree
// rather than each run's own sequential peak.
func (s *SpaceMeter) Tee(parent *SharedMeter) { s.parent = parent }

// Charge adds n words to the current usage. Negative charges panic; use
// Release to return memory.
func (s *SpaceMeter) Charge(n int64) {
	if n < 0 {
		panic("stream: negative charge; use Release")
	}
	s.current += n
	if s.current > s.peak {
		s.peak = s.current
	}
	s.parent.add(n)
}

// Release subtracts n words from the current usage. Releasing more than the
// current usage clamps to zero (and is a sign of sloppy accounting, but not
// worth crashing an experiment over).
func (s *SpaceMeter) Release(n int64) {
	if n < 0 {
		panic("stream: negative release; use Charge")
	}
	released := n
	if released > s.current {
		released = s.current
	}
	s.current -= released
	s.parent.add(-released)
}

// Current returns the words currently charged.
func (s *SpaceMeter) Current() int64 { return s.current }

// Peak returns the maximum words ever charged simultaneously.
func (s *SpaceMeter) Peak() int64 { return s.peak }

// Reset zeroes the meter.
func (s *SpaceMeter) Reset() {
	s.current = 0
	s.peak = 0
}

// String implements fmt.Stringer.
func (s *SpaceMeter) String() string {
	return fmt.Sprintf("SpaceMeter(current=%d, peak=%d words)", s.current, s.peak)
}

// SharedMeter is the concurrency-safe group meter behind SpaceMeter.Tee:
// several estimator runs fused onto one physical scan each keep their own
// SpaceMeter, and all of them mirror into one SharedMeter, whose peak is the
// largest number of words the whole fused group retained at any instant.
// This is the honest space figure for fusion — concurrently-live shard
// states add up, they do not take a sequential max.
//
// Group meters form a tree: a meter made with a parent mirrors every change
// into it, so a geometric search's meter sees its probes, a session's meter
// its trials, and the scheduler's meter everything fused onto it.
type SharedMeter struct {
	parent  *SharedMeter
	mu      sync.Mutex
	current int64
	peak    int64
}

// NewSharedMeter returns a zeroed group meter that mirrors into parent (nil:
// a root).
func NewSharedMeter(parent *SharedMeter) *SharedMeter { return &SharedMeter{parent: parent} }

// add applies a (possibly negative) delta to g and every meter above it. A
// nil g is a no-op.
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

// Charge adds n words the group itself retains, such as a session's degree
// array, which no run's meter owns.
func (g *SharedMeter) Charge(n int64) { g.add(n) }

// Release returns n words to the group: a scheduler's root client hands
// back, once its whole tree has returned, the words its runs charged.
func (g *SharedMeter) Release(n int64) { g.add(-n) }

// Peak returns the maximum words the group ever retained simultaneously.
func (g *SharedMeter) Peak() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Current returns the words currently charged across the group.
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
