package stream

import (
	"container/list"
	"sync"
	"sync/atomic"

	"degentri/internal/graph"
)

// The decoded-block cache: tier 2 of the .bex v2 hot-scan engine. The
// paper's algorithm re-reads the same stream O(log n) times per estimate
// (and fused trials multiply that), so after the first pass the dominant
// cost of a v2 scan is re-decoding bytes that were already decoded moments
// ago. The cache keeps fully decoded blocks — []graph.Edge, the exact slices
// the cursor serves — keyed by (file stat identity, block ordinal), so the
// 2nd..Nth logical pass hands out pre-decoded batches zero-copy.
//
// Coherence rules, in order of subtlety:
//
//   - Generation invalidation is structural: the key embeds the file's
//     (path, size, mtime) identity captured at open, so a rewritten file's
//     blocks simply miss and the stale generation ages out of the LRU.
//   - Shard-boundary preservation: the cache stores whole decoded blocks and
//     the cursor slices them by stream position exactly as it slices its own
//     decode buffer, so batch and shard boundaries — and therefore results
//     at any worker count — are bit-identical with the cache on or off.
//   - Entries are immutable after insert and inserted only after a complete,
//     CRC-verified decode; a cancelled or faulted scan dies before its
//     insert, so a partially-decoded block is unrepresentable in the cache.
//   - Entries are refcounted while a cursor is serving chunks out of them.
//     Eviction skips pinned entries (the budget can transiently overshoot by
//     the pinned working set, bounded by cursors × block size), which keeps
//     zero-copy serving safe from cache pressure without copying on hit.
//
// The cache is process-wide and byte-budgeted; DefaultDecodeCacheBytes is
// the default budget and SetDecodeCacheBudget the knob (0 disables). It only
// serves cursors opened with OpenOptions.DecodeCache — plain opens decode
// every block, so single-shot tools pay no cache bookkeeping.

// DefaultDecodeCacheBytes is the default budget of the decoded-block cache:
// 64 MiB holds ~4M decoded edges, several corpus graphs' full working sets,
// while staying noise next to the page cache the raw bytes already occupy.
const DefaultDecodeCacheBytes = 64 << 20

// fileIdentity identifies one on-disk file by path plus stat identity, so a
// rewritten file keys differently from the generation it replaced.
type fileIdentity struct {
	path  string
	size  int64
	mtime int64
}

// blockCacheKey identifies one decoded block: the file's stat identity at
// open plus the block ordinal within the file.
type blockCacheKey struct {
	file fileIdentity
	blk  int
}

// blockCacheEntry is one immutable decoded block. refs counts the cursors
// currently serving chunks out of edges; el is the entry's LRU position.
type blockCacheEntry struct {
	key   blockCacheKey
	edges []graph.Edge
	refs  int
	el    *list.Element
}

// bytes is the entry's budget charge.
func (e *blockCacheEntry) bytes() int64 { return int64(len(e.edges)) * 16 }

// DecodeCacheStats is a snapshot of the decoded-block cache's counters.
type DecodeCacheStats struct {
	Hits, Misses, Evictions int64 // lifetime counters
	Bytes, Entries          int64 // current residency
}

// blockCache is a mutex-guarded byte-budgeted LRU of decoded blocks.
type blockCache struct {
	hits, misses, evictions atomic.Int64

	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[blockCacheKey]*blockCacheEntry
	order   list.List // front = most recently used; holds *blockCacheEntry
}

func newBlockCache(budget int64) *blockCache {
	c := &blockCache{budget: budget, entries: make(map[blockCacheKey]*blockCacheEntry)}
	c.order.Init()
	return c
}

// get returns the cached entry for key, pinned (the caller owes a release),
// and counts a hit or miss. A disabled cache (budget <= 0) always misses.
func (c *blockCache) get(key blockCacheKey) (*blockCacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		e.refs++
		c.order.MoveToFront(e.el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// put inserts a freshly decoded block and returns it pinned. If the key is
// already present (two cursors raced on the decode), the existing entry wins
// — entries for one key are identical by construction — and the new slice is
// dropped. A disabled cache stores nothing and returns nil.
func (c *blockCache) put(key blockCacheKey, edges []graph.Edge) *blockCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		return nil
	}
	if e, ok := c.entries[key]; ok {
		e.refs++
		c.order.MoveToFront(e.el)
		return e
	}
	e := &blockCacheEntry{key: key, edges: edges, refs: 1}
	e.el = c.order.PushFront(e)
	c.entries[key] = e
	c.used += e.bytes()
	c.evictLocked()
	return e
}

// release drops one pin on e (nil is allowed for the disabled-cache path).
func (c *blockCache) release(e *blockCacheEntry) {
	if e == nil {
		return
	}
	c.mu.Lock()
	e.refs--
	c.mu.Unlock()
}

// evictLocked walks the LRU tail dropping unpinned entries until the budget
// holds. Pinned entries are skipped in place: they are by definition in
// active use, and their charge keeps the pressure on the rest of the list.
func (c *blockCache) evictLocked() {
	el := c.order.Back()
	for c.used > c.budget && el != nil {
		prev := el.Prev()
		e := el.Value.(*blockCacheEntry)
		if e.refs == 0 {
			c.order.Remove(el)
			delete(c.entries, e.key)
			c.used -= e.bytes()
			c.evictions.Add(1)
		}
		el = prev
	}
}

// setBudget replaces the byte budget, evicting down if it shrank. A budget
// of zero or less drops every unpinned entry: each holds at least one edge
// (v2 blocks are non-empty, checked at open), so used stays above the
// budget until evictLocked has walked the whole list.
func (c *blockCache) setBudget(budget int64) {
	c.mu.Lock()
	c.budget = budget
	c.evictLocked()
	c.mu.Unlock()
}

func (c *blockCache) stats() DecodeCacheStats {
	c.mu.Lock()
	bytes, entries := c.used, int64(len(c.entries))
	c.mu.Unlock()
	return DecodeCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     bytes,
		Entries:   entries,
	}
}

// decodeCache is the process-wide decoded-block cache.
var decodeCache = newBlockCache(DefaultDecodeCacheBytes)

// SetDecodeCacheBudget sets the decoded-block cache's byte budget for the
// process (0 or negative disables caching and drops resident entries).
// Streams opt in per open via OpenOptions.DecodeCache.
func SetDecodeCacheBudget(bytes int64) { decodeCache.setBudget(bytes) }

// ReadDecodeCacheStats snapshots the decoded-block cache counters (exported
// by triangled's /metrics).
func ReadDecodeCacheStats() DecodeCacheStats { return decodeCache.stats() }
