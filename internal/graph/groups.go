package graph

import (
	"math/bits"
	"slices"

	"degentri/internal/radix"
)

// This file provides the small dense lookup structures the streaming
// estimators use in their per-edge hot loops in place of hash maps: a sorted
// key array with one counter per key (SortedCounter), vertex-keyed item
// groups (VertexGroups) and edge-keyed item groups (EdgeIndex), the latter
// two in the same offsets+items CSR layout as Graph itself.
//
// A pass reads every stream edge, but almost no edge touches a key: an
// estimate tracks a few thousand of a graph's vertices. So each structure
// keeps a membership bitset over the IDs its keys can hold (an idFilter), and
// its MayContain method tests one bit. The test sits in its own method
// because Inc or Lookup with the test inside would not inline: their call to
// the out-of-line hit path alone costs 57 of the compiler's inline budget of
// 80. So every per-edge loop calls MayContain first and reaches the hit path
// only on a hit. SortedCounter and VertexGroups pair the bitset with a count
// of the keys below each 64-ID word (a rankSet, the rank directory of Vigna's
// broadword rank/select), so a hit's key index is one popcount away.
// EdgeIndex filters on its keys' smaller endpoints and finds a hit in its hash
// table. When the IDs are too sparse for a bitset, the structures have none
// and binary-search their sorted keys.

// rankTableLimit bounds the ID bitsets: a rankSet or an EdgeIndex filter
// covers [0, maxID] and is built only when maxID < 8M. Their size follows the
// largest ID, not the key count, so the bound caps one structure at 1.5 MB (a
// rankSet's 1.5 bits per ID: one bit, plus an int32 per 64-ID word). Vertex
// IDs are dense throughout this repository, so every graph of up to 8M
// vertices stays under it. Beyond it (sparse or huge ID spaces), lookups
// binary-search the sorted keys.
const rankTableLimit = 1 << 23

// idFilter is a membership bitset over the IDs [0, 64·len(f)). A nil filter
// means "no bitset": every ID may be a member.
type idFilter []uint64

// newIDFilter returns an empty filter over the IDs [0, maxID], or nil when
// that range exceeds rankTableLimit. A negative maxID gives a non-nil filter
// with no words, which contains nothing.
func newIDFilter(maxID int) idFilter {
	if maxID >= rankTableLimit {
		return nil
	}
	return make(idFilter, (maxID+64)/64)
}

// add sets the bit of id, which must be in the filter's range.
func (f idFilter) add(id int) {
	f[uint(id)>>6] |= 1 << (uint(id) & 63)
}

// mayContain reports whether id can be a member: its bit, or true for a nil
// filter. It is small enough to inline into the per-edge loops.
func (f idFilter) mayContain(id int) bool {
	if w := uint(id) >> 6; w < uint(len(f)) {
		return f[w]&(1<<(uint(id)&63)) != 0
	}
	return f == nil
}

// rankSet is a membership bitset over the keys plus, for every 64-ID word,
// the number of keys in the words below it: the index of key v among the
// sorted keys is base[v/64] plus the set bits of its word below v.
type rankSet struct {
	bits idFilter // nil when the keys are too sparse (or negative) for a bitset
	base []int32
}

// newRankSet returns the rank-set of the sorted distinct keys, or one with a
// nil filter when some key is negative or the largest reaches rankTableLimit.
func newRankSet(sorted []int) rankSet {
	maxKey := -1
	if len(sorted) > 0 {
		if sorted[0] < 0 {
			return rankSet{}
		}
		maxKey = sorted[len(sorted)-1]
	}
	f := newIDFilter(maxKey)
	if f == nil {
		return rankSet{}
	}
	for _, v := range sorted {
		f.add(v)
	}
	base := make([]int32, len(f))
	n := int32(0)
	for w, word := range f {
		base[w] = n
		n += int32(bits.OnesCount64(word))
	}
	return rankSet{bits: f, base: base}
}

// find returns the index of v in sorted, the keys s was built from, or -1
// when v is not a key.
func (s *rankSet) find(sorted []int, v int) int {
	if s.bits == nil {
		return FindSorted(sorted, v)
	}
	if !s.bits.mayContain(v) {
		return -1
	}
	w := uint(v) >> 6
	return int(s.base[w]) + bits.OnesCount64(s.bits[w]&(1<<(uint(v)&63)-1))
}

// FindSorted returns the index of v in the sorted slice a, or -1 when v is
// absent.
func FindSorted(a []int, v int) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a) && a[lo] == v {
		return lo
	}
	return -1
}

// SortedCounter is a set of integer keys fixed at construction with one
// counter per key — the dense replacement for a map[int]int whose key set is
// known up front (e.g. "degrees of the endpoints of the sampled edges").
type SortedCounter struct {
	keys   []int
	counts []int
	set    rankSet
}

// NewSortedCounter builds a counter over the distinct values of keys, which
// is consumed (sorted in place).
func NewSortedCounter(keys []int) *SortedCounter {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	return &SortedCounter{keys: keys, counts: make([]int, len(keys)), set: newRankSet(keys)}
}

// Fork returns a counter over the same key set with all counts zero. The key
// array and rank-set are shared (they are read-only after construction), so
// a Fork is cheap: it is the per-shard accumulator of a sharded pass, merged
// back with Merge.
func (c *SortedCounter) Fork() *SortedCounter {
	return &SortedCounter{keys: c.keys, counts: make([]int, len(c.keys)), set: c.set}
}

// Merge adds the counts of other — a Fork of the same counter (or any counter
// with an identical key set) — into c. It panics if the key sets differ in
// size, which is a programming error in the caller.
func (c *SortedCounter) Merge(other *SortedCounter) {
	if len(other.counts) != len(c.counts) {
		panic("graph: SortedCounter.Merge with mismatched key sets")
	}
	for i, n := range other.counts {
		c.counts[i] += n
	}
}

// ResetCounts zeroes every count, letting a pooled Fork be reused.
func (c *SortedCounter) ResetCounts() {
	clear(c.counts)
}

// Len returns the number of distinct keys.
func (c *SortedCounter) Len() int { return len(c.keys) }

// MayContain reports whether v can be a tracked key: false means Inc(v) is a
// no-op. It tests v's bit, and is true for every v when the counter has no
// bitset. It inlines, so a per-edge loop calls it first and pays the Inc call
// only on a hit.
func (c *SortedCounter) MayContain(v int) bool { return c.set.bits.mayContain(v) }

// Inc increments the counter of v if v is a tracked key.
func (c *SortedCounter) Inc(v int) {
	if i := c.set.find(c.keys, v); i >= 0 {
		c.counts[i]++
	}
}

// Get returns the count of v and whether v is a tracked key.
func (c *SortedCounter) Get(v int) (int, bool) {
	i := c.set.find(c.keys, v)
	if i < 0 {
		return 0, false
	}
	return c.counts[i], true
}

// VertexGroups maps vertices to groups of item indices, CSR style: the
// distinct vertices are sorted in verts, and the items of verts[i] are
// items[offsets[i]:offsets[i+1]], preserving the order in which the pairs
// were given. It replaces a map[int][]T built once and probed per stream
// edge.
type VertexGroups struct {
	verts   []int
	offsets []int32
	items   []int32
	set     rankSet
}

// NewVertexGroups groups items 0..len(vertexOf)-1 by their vertex: vertexOf[i]
// is the vertex of item i. Items of the same vertex keep their relative
// order, matching the append order of the map-based construction it
// replaces.
func NewVertexGroups(vertexOf []int) *VertexGroups {
	distinct := make([]int, len(vertexOf))
	copy(distinct, vertexOf)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)

	g := &VertexGroups{
		verts:   distinct,
		offsets: make([]int32, len(distinct)+1),
		items:   make([]int32, len(vertexOf)),
		set:     newRankSet(distinct),
	}
	for _, v := range vertexOf {
		g.offsets[g.set.find(distinct, v)+1]++
	}
	for i := 0; i < len(distinct); i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	cursor := make([]int32, len(distinct))
	copy(cursor, g.offsets[:len(distinct)])
	for i, v := range vertexOf {
		slot := g.set.find(distinct, v)
		g.items[cursor[slot]] = int32(i)
		cursor[slot]++
	}
	return g
}

// Groups returns the number of distinct vertices.
func (g *VertexGroups) Groups() int { return len(g.verts) }

// MayContain reports whether v can be a key: false means Lookup(v) is nil.
// Like SortedCounter.MayContain it tests v's bit, is true for every v without
// a bitset, and inlines into the per-edge loops.
func (g *VertexGroups) MayContain(v int) bool { return g.set.bits.mayContain(v) }

// Lookup returns the item indices grouped under v (nil when v is not a key).
// The returned slice aliases internal storage and must not be modified.
func (g *VertexGroups) Lookup(v int) []int32 {
	i := g.set.find(g.verts, v)
	if i < 0 {
		return nil
	}
	return g.items[g.offsets[i]:g.offsets[i+1]]
}

// EdgeIndex maps normalized edges to groups of item indices, in the same
// CSR layout as VertexGroups. Edge keys are packed into uint64 (U in the
// high half) when both endpoints fit in 32 bits — always the case for the
// dense vertex IDs used here — so a lookup hashes one machine word, after a
// bit test on the edge's smaller endpoint rejects almost every stream edge.
// It replaces a map[Edge][]T probed once per stream edge (closure checks).
type EdgeIndex struct {
	packed  []uint64 // sorted packed keys; nil when some endpoint overflows
	keys    []Edge   // sorted keys, only populated when packed == nil
	offsets []int32
	items   []int32
	// Open-addressing hash over the packed keys (power-of-two table, linear
	// probing): table[slot] is the key's index in packed, plus one; 0 marks
	// an empty slot. Built only in the packed case.
	table []int32
	shift uint
	// lows has the bit of every key's smaller endpoint (key>>32). It is nil
	// when the keys do not pack or their smaller endpoints reach
	// rankTableLimit.
	lows idFilter
}

// hashPacked mixes a packed edge key into a table slot (Fibonacci hashing).
func hashPacked(key uint64, shift uint) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> shift
}

// edgePacks reports whether both endpoints fit in 32 bits, i.e. the edge can
// be packed into one comparable word.
func edgePacks(e Edge) bool {
	return uint64(e.U) <= 0xffffffff && uint64(e.V) <= 0xffffffff
}

// edgeItem pairs an edge key with the item it belongs to.
type edgeItem struct {
	key  Edge
	item int32
}

// NewEdgeIndex groups items by their (normalized) edge key: edgeOf[i] is the
// key of item i. Items with equal keys keep their relative order (the sort
// tiebreaks on the item index, which reproduces insertion order).
func NewEdgeIndex(edgeOf []Edge) *EdgeIndex {
	packable := true
	for _, e := range edgeOf {
		if !edgePacks(e.Normalize()) {
			packable = false
			break
		}
	}
	if packable {
		return newPackedEdgeIndex(edgeOf)
	}

	pairs := make([]edgeItem, len(edgeOf))
	for i, e := range edgeOf {
		pairs[i] = edgeItem{key: e.Normalize(), item: int32(i)}
	}
	slices.SortStableFunc(pairs, func(a, b edgeItem) int {
		return compareEdges(a.key, b.key)
	})
	ix := &EdgeIndex{items: make([]int32, len(pairs))}
	for i, p := range pairs {
		if i == 0 || p.key != pairs[i-1].key {
			ix.keys = append(ix.keys, p.key)
			ix.offsets = append(ix.offsets, int32(i))
		}
		ix.items[i] = p.item
	}
	ix.offsets = append(ix.offsets, int32(len(pairs)))
	return ix
}

// newPackedEdgeIndex is the common-case constructor: machine-word keys sorted
// by the shared LSD radix core (radix.SortPairs — the closure-check indexes
// of a big run hold millions of keys; items arrive in insertion order, so the
// stable sort preserves it within equal keys), and the probe table for O(1)
// lookups.
func newPackedEdgeIndex(edgeOf []Edge) *EdgeIndex {
	pairs := make([]radix.Pair, len(edgeOf))
	for i, e := range edgeOf {
		n := e.Normalize()
		pairs[i] = radix.Pair{Key: uint64(n.U)<<32 | uint64(n.V), Item: int32(i)}
	}
	radix.SortPairs(pairs)

	ix := &EdgeIndex{items: make([]int32, len(pairs))}
	for i, p := range pairs {
		if i == 0 || p.Key != pairs[i-1].Key {
			ix.packed = append(ix.packed, p.Key)
			ix.offsets = append(ix.offsets, int32(i))
		}
		ix.items[i] = p.Item
	}
	ix.offsets = append(ix.offsets, int32(len(pairs)))

	// The keys are sorted, so the last has the largest smaller endpoint.
	maxLow := -1
	if len(ix.packed) > 0 {
		maxLow = int(ix.packed[len(ix.packed)-1] >> 32)
	}
	if ix.lows = newIDFilter(maxLow); ix.lows != nil {
		for _, key := range ix.packed {
			ix.lows.add(int(key >> 32))
		}
	}

	// Size the hash table at ≥2× the key count for short probe runs.
	bits := uint(2)
	for 1<<bits < 2*len(ix.packed) {
		bits++
	}
	ix.shift = 64 - bits
	ix.table = make([]int32, 1<<bits)
	mask := uint64(1<<bits - 1)
	for i, key := range ix.packed {
		slot := hashPacked(key, ix.shift)
		for ix.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		ix.table[slot] = int32(i) + 1
	}
	return ix
}

// Keys returns the number of distinct edge keys.
func (ix *EdgeIndex) Keys() int { return len(ix.offsets) - 1 }

// MayContain reports whether the edge e, in either orientation, can be a
// key: false means Lookup(e.Normalize()) is nil. It tests the bit of e's
// smaller endpoint, is true for every e when the index has no filter, and
// inlines, so a per-edge loop calls it before normalizing e and paying the
// Lookup call.
func (ix *EdgeIndex) MayContain(e Edge) bool { return ix.lows.mayContain(min(e.U, e.V)) }

// Lookup returns the item indices grouped under the normalized edge e (nil
// when e is not a key). The returned slice aliases internal storage and must
// not be modified.
func (ix *EdgeIndex) Lookup(e Edge) []int32 {
	if !ix.lows.mayContain(e.U) {
		return nil
	}
	if ix.packed != nil {
		if uint64(e.U) > 0xffffffff || uint64(e.V) > 0xffffffff {
			return nil
		}
		key := uint64(e.U)<<32 | uint64(e.V)
		mask := uint64(len(ix.table) - 1)
		slot := hashPacked(key, ix.shift)
		for {
			r := ix.table[slot]
			if r == 0 {
				return nil
			}
			if ix.packed[r-1] == key {
				return ix.items[ix.offsets[r-1]:ix.offsets[r]]
			}
			slot = (slot + 1) & mask
		}
	}
	lo, hi := 0, len(ix.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareEdges(ix.keys[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix.keys) && ix.keys[lo] == e {
		return ix.items[ix.offsets[lo]:ix.offsets[lo+1]]
	}
	return nil
}
