package stream

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/graph"
)

// resetDecodeEngine pins the process-wide decode knobs for one test and
// restores the defaults afterwards. The cache counters are lifetime-global,
// so tests measure deltas via statsDelta rather than absolutes.
func resetDecodeEngine(t *testing.T, budget int64) {
	t.Helper()
	SetDecodeCacheBudget(budget)
	t.Cleanup(func() {
		SetSIMDDecode(true)
		SetDecodeCacheBudget(DefaultDecodeCacheBytes)
	})
}

// statsDelta runs fn and returns the change in the cache counters.
func statsDelta(fn func()) DecodeCacheStats {
	before := ReadDecodeCacheStats()
	fn()
	after := ReadDecodeCacheStats()
	return DecodeCacheStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		Bytes:     after.Bytes,
		Entries:   after.Entries,
	}
}

// cacheOpeners enumerates the v2-family backends through the public
// cache-aware entry point.
var cacheOpeners = []struct {
	name  string
	write func(t *testing.T, dir string, edges []graph.Edge) string
}{
	{"bex2", writeV2File},
	{"bexd", writeBexdDir},
}

func writeV2File(t *testing.T, dir string, edges []graph.Edge) string {
	t.Helper()
	path := filepath.Join(dir, "g.bex")
	if _, err := WriteBex2File(path, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeBexdDir(t *testing.T, dir string, edges []graph.Edge) string {
	t.Helper()
	path := filepath.Join(dir, "g.bexd")
	if _, err := WriteBexd(path, FromEdges(edges), 64, 300); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDecodeCacheServesRepeatScans pins the cache's reason to exist: the
// second pass over a cache-enabled stream is served from decoded blocks
// (hits, no new misses) and returns bit-identical edges. A stream opened
// without DecodeCache never touches the cache at all.
func TestDecodeCacheServesRepeatScans(t *testing.T) {
	edges := bex2TestEdges(1000)
	for _, tc := range cacheOpeners {
		t.Run(tc.name, func(t *testing.T) {
			resetDecodeEngine(t, DefaultDecodeCacheBytes)
			path := tc.write(t, t.TempDir(), edges)

			s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			cold := statsDelta(func() { sameEdges(t, collectAll(t, s), edges, "cold pass") })
			if cold.Misses == 0 {
				t.Fatalf("cold pass recorded no misses: %+v", cold)
			}
			warm := statsDelta(func() { sameEdges(t, collectAll(t, s), edges, "warm pass") })
			if warm.Hits == 0 || warm.Misses != 0 {
				t.Fatalf("warm pass not served from cache: %+v", warm)
			}
			if warm.Entries == 0 || warm.Bytes == 0 {
				t.Fatalf("no residency after warm pass: %+v", warm)
			}

			// A second reader of the same file shares the decoded blocks.
			s2, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			shared := statsDelta(func() { sameEdges(t, collectAll(t, s2), edges, "shared pass") })
			if shared.Hits == 0 || shared.Misses != 0 {
				t.Fatalf("second reader not served from cache: %+v", shared)
			}

			// Plain opens bypass the cache entirely: no hits, no misses.
			plain, err := OpenAutoOpts(path, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			off := statsDelta(func() { sameEdges(t, collectAll(t, plain), edges, "uncached pass") })
			if off.Hits != 0 || off.Misses != 0 {
				t.Fatalf("uncached stream touched the cache: %+v", off)
			}
		})
	}
}

// TestDecodeCacheBudgetEviction pins the byte budget: a cache smaller than
// the file's decoded size evicts down to the budget once pins drop, and the
// stream still returns exact edges while thrashing.
func TestDecodeCacheBudgetEviction(t *testing.T) {
	edges := bex2TestEdges(2000) // 32000 decoded bytes across 64-edge blocks
	resetDecodeEngine(t, 4096)   // room for four 64-edge blocks
	path := writeV2File(t, t.TempDir(), edges)

	s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for pass := 0; pass < 2; pass++ {
		sameEdges(t, collectAll(t, s), edges, "thrashing pass")
	}
	st := ReadDecodeCacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", 4096, st)
	}
	if st.Bytes > 4096 {
		t.Fatalf("residency %d bytes exceeds budget with no pins held: %+v", st.Bytes, st)
	}
}

// TestDecodeCacheDisabled pins the off switch: with a zero budget nothing is
// ever resident and edges are still exact.
func TestDecodeCacheDisabled(t *testing.T) {
	edges := bex2TestEdges(500)
	resetDecodeEngine(t, 0)
	path := writeV2File(t, t.TempDir(), edges)

	s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for pass := 0; pass < 2; pass++ {
		sameEdges(t, collectAll(t, s), edges, "disabled-cache pass")
	}
	if st := ReadDecodeCacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("disabled cache holds residency: %+v", st)
	}
}

// TestDecodeCacheInvalidatedByRewrite pins generation invalidation: the key
// embeds (path, size, mtime), so a rewritten file misses the old generation
// and a reopened stream serves the new edges, never the stale decode.
func TestDecodeCacheInvalidatedByRewrite(t *testing.T) {
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	dir := t.TempDir()
	old := bex2TestEdges(600)
	path := writeV2File(t, dir, old)

	s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, collectAll(t, s), old, "first generation")
	s.Close()

	// Rewrite in place with different content (different size too).
	next := bex2TestEdges(900)
	writeV2File(t, dir, next)

	s2, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d := statsDelta(func() { sameEdges(t, collectAll(t, s2), next, "second generation") })
	if d.Misses == 0 {
		t.Fatalf("rewritten file served from the stale generation: %+v", d)
	}
}

// TestDecodeCachePreservesShardBoundaries pins the subtlest coherence rule:
// a cached block is sliced by stream position exactly like a fresh decode,
// so range streams — the shard mechanism — see identical edges whether their
// blocks come from the cache or the decoder, at any split.
func TestDecodeCachePreservesShardBoundaries(t *testing.T) {
	edges := bex2TestEdges(1000)
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	path := writeV2File(t, t.TempDir(), edges)

	s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sameEdges(t, collectAll(t, s), edges, "warmup") // populate the cache

	rs := s.(RangeStreamer)
	for _, lo := range []int{0, 1, 63, 64, 65, 500, 999} {
		for _, hi := range []int{lo, lo + 1, lo + 64, 1000} {
			if hi > 1000 || hi < lo {
				continue
			}
			sub, ok := rs.RangeStream(lo, hi)
			if !ok {
				t.Fatalf("RangeStream(%d,%d) refused", lo, hi)
			}
			got, err := Collect(sub)
			if err != nil {
				t.Fatalf("range [%d,%d): %v", lo, hi, err)
			}
			sameEdges(t, got, edges[lo:hi], "cached range")
		}
	}
}

// TestBex2SIMDScalarStreamEquivalence pins the kernels against each other at
// the stream level: every v2-family backend returns bit-identical edges with
// the vectorized decoder on and off, cache on and off.
func TestBex2SIMDScalarStreamEquivalence(t *testing.T) {
	if !SIMDDecodeEnabled() {
		t.Skip("no vectorized kernel on this architecture")
	}
	edges := bex2TestEdges(3000)
	for _, tc := range cacheOpeners {
		t.Run(tc.name, func(t *testing.T) {
			resetDecodeEngine(t, DefaultDecodeCacheBytes)
			path := tc.write(t, t.TempDir(), edges)
			for _, cache := range []bool{false, true} {
				for _, simd := range []bool{true, false} {
					SetSIMDDecode(simd)
					s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: cache})
					if err != nil {
						t.Fatal(err)
					}
					sameEdges(t, collectAll(t, s), edges, DecodeKernelName())
					s.Close()
				}
			}
		})
	}
}

// TestBex2CachedReadsStillVerifyCRCs pins the cached read path against
// silent corruption: CRCs are verified lazily per block on first touch, so a
// bit flip inside a block payload surfaces as ErrCorruptBlock on the read —
// with the cache enabled — and the damaged block is never inserted into the
// cache.
func TestBex2CachedReadsStillVerifyCRCs(t *testing.T) {
	edges := bex2TestEdges(1000)
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	dir := t.TempDir()
	good := writeV2File(t, dir, edges)
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := OpenBex2(good)
	if err != nil {
		t.Fatal(err)
	}
	off := fs.cur.meta.blocks[3].off + 5
	fs.Close()
	path := corrupt(t, dir, "flipped.bex", raw, func(b []byte) []byte {
		b[off] ^= 0x40
		return b
	})

	s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
	if err != nil {
		t.Fatalf("block corruption must not fail at open: %v", err)
	}
	defer s.Close()
	if _, err := Collect(s); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("cached pass error %v, want ErrCorruptBlock", err)
	}
	// The failed pass cached the verified blocks before the damage but must
	// not have inserted the damaged block: a re-read still fails.
	if _, err := Collect(s); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("re-read after caching: %v, want ErrCorruptBlock", err)
	}
	// Ranges that avoid the damage are served (now partly from cache) exactly.
	clean, _ := s.(RangeStreamer).RangeStream(0, 192)
	got, err := Collect(clean)
	if err != nil {
		t.Fatalf("range over clean blocks: %v", err)
	}
	sameEdges(t, got, edges[:192], "clean cached range")
}

// TestDecodeCachePinnedEntriesSurviveEviction pins the refcount contract: an
// entry a cursor is actively serving from survives a budget collapse, and
// the budget recovers once the cursor releases it.
func TestDecodeCachePinnedEntriesSurviveEviction(t *testing.T) {
	edges := bex2TestEdges(500)
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	path := writeV2File(t, t.TempDir(), edges)

	s, err := OpenBex2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.cur.cache = true
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	// Pull one batch so the cursor holds a pin on the first block's entry.
	if _, err := s.NextBatch(nil); err != nil {
		t.Fatal(err)
	}
	SetDecodeCacheBudget(1) // collapse: everything unpinned must go
	st := ReadDecodeCacheStats()
	if st.Entries != 1 {
		t.Fatalf("pinned entry count = %d after collapse, want 1", st.Entries)
	}
	// A fresh pass (Collect resets, which releases the pin) still reads
	// exactly while the cache thrashes at a 1-byte budget.
	sameEdges(t, collectAll(t, s), edges, "pass under collapsed budget")
	if st := ReadDecodeCacheStats(); st.Entries > 1 {
		t.Fatalf("collapsed cache retains %d entries", st.Entries)
	}
	// With no pins left, disabling the cache drops everything.
	SetDecodeCacheBudget(0)
	if st := ReadDecodeCacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("disabled cache with no pins holds residency: %+v", st)
	}
}
