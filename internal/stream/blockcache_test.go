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

func writeV2File(t *testing.T, dir string, edges []graph.Edge) string {
	t.Helper()
	path := filepath.Join(dir, "g.bex")
	if _, err := WriteBex2File(path, FromEdges(edges), 64); err != nil {
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
	t.Run("bex2", func(t *testing.T) {
		resetDecodeEngine(t, DefaultDecodeCacheBytes)
		path := writeV2File(t, t.TempDir(), edges)

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

// TestDecodeCacheChargesEightBytesPerEdge pins the charge the budget rests
// on: one cached pass over m edges leaves 8·m bytes resident, the size of
// the decoded edges, so the default budget holds twice the edges it would
// at two ints per edge.
func TestDecodeCacheChargesEightBytesPerEdge(t *testing.T) {
	const m = 1000
	SetDecodeCacheBudget(0) // drop what earlier tests left resident
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	path := writeV2File(t, t.TempDir(), bex2TestEdges(m))
	s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	collectAll(t, s)
	if st := ReadDecodeCacheStats(); st.Bytes != 8*m {
		t.Fatalf("a cached pass over %d edges left %d bytes resident, want %d", m, st.Bytes, 8*m)
	}
}

// TestDecodeCacheBudgetEviction pins the byte budget: a cache smaller than
// the file's decoded size evicts down to the budget once pins drop, and the
// stream still returns exact edges while thrashing.
func TestDecodeCacheBudgetEviction(t *testing.T) {
	edges := bex2TestEdges(2000) // 16000 decoded bytes across 64-edge blocks
	resetDecodeEngine(t, 4096)   // room for eight 64-edge blocks
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
// the stream level: a .bex v2 stream returns bit-identical edges with the
// vectorized decoder on and off, cache on and off.
func TestBex2SIMDScalarStreamEquivalence(t *testing.T) {
	if !SIMDDecodeEnabled() {
		t.Skip("no vectorized kernel on this architecture")
	}
	edges := bex2TestEdges(3000)
	t.Run("bex2", func(t *testing.T) {
		resetDecodeEngine(t, DefaultDecodeCacheBytes)
		path := writeV2File(t, t.TempDir(), edges)
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
	off := fs.cur.file.blocks[3].off + 5
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

// renamePair writes A = (i, i+1) and B = (i+1, i) for i < 40,000 as name and
// name+".next", both with one mtime, and returns A's path and the sum of
// 3u+v over A's edges and over B's. The two files have the same size, so
// only device and inode tell them apart once B is renamed over A.
func renamePair(t *testing.T, dir, name string, write func(path string, edges []graph.Edge)) (path string, sumA, sumB int) {
	t.Helper()
	const n = 40000
	a := make([]graph.Edge, n)
	b := make([]graph.Edge, n)
	for i := range a {
		a[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
		b[i] = graph.Edge{U: int32(i + 1), V: int32(i)}
	}
	path = filepath.Join(dir, name)
	write(path, a)
	write(path+".next", b)
	infoA, errA := os.Stat(path)
	infoB, errB := os.Stat(path + ".next")
	if errA != nil || errB != nil || infoA.Size() != infoB.Size() {
		t.Fatalf("A and B must have one size: %v, %v, %v, %v", infoA, errA, infoB, errB)
	}
	tick := infoA.ModTime()
	for _, p := range []string{path, path + ".next"} {
		if err := os.Chtimes(p, tick, tick); err != nil {
			t.Fatal(err)
		}
	}
	return path, edgeSum(a), edgeSum(b)
}

// edgeSum is Σ 3u+v over edges.
func edgeSum(edges []graph.Edge) int {
	sum := 0
	for _, e := range edges {
		sum += 3*int(e.U) + int(e.V)
	}
	return sum
}

// TestDecodeCacheMissesSameSizeRename pins that the cache key holds the
// file's device and inode: a fresh cached open of a path that another file
// of the same size and mtime was renamed over reads the new file, not the
// old one's decoded blocks.
func TestDecodeCacheMissesSameSizeRename(t *testing.T) {
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	path, sumA, sumB := renamePair(t, t.TempDir(), "g.bex", func(path string, edges []graph.Edge) {
		if _, err := WriteBex2File(path, FromEdges(edges), 1024); err != nil {
			t.Fatal(err)
		}
	})
	s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := edgeSum(collectAll(t, s)); got != sumA {
		t.Fatalf("first file: sum %d, want %d", got, sumA)
	}
	s.Close()
	if err := os.Rename(path+".next", path); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenAutoOpts(path, OpenOptions{DecodeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := edgeSum(collectAll(t, s2)); got != sumB {
		t.Fatalf("renamed-over file: sum %d, want %d (the replaced file's is %d)", got, sumB, sumA)
	}
}

// TestFileStreamCopyMissesSameSizeRename is the same case for a text file
// whose .bex copy is live: once another text of the same size and mtime is
// renamed over the path, the stream sees that its text changed and drops
// the copy. Its later passes parse the text through the handle it opened, so
// an open stream still serves one generation, as a .bex stream does.
func TestFileStreamCopyMissesSameSizeRename(t *testing.T) {
	path, sumA, sumB := renamePair(t, t.TempDir(), "g.txt", func(path string, edges []graph.Edge) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WriteEdgeList(f, FromEdges(edges)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	})
	s := OpenFile(path)
	defer s.Close()
	for pass := 1; pass <= 2; pass++ {
		if got := edgeSum(collectAll(t, s)); got != sumA {
			t.Fatalf("pass %d over the first text: sum %d, want %d", pass, got, sumA)
		}
	}
	if _, ok := s.RangeStream(0, 1); !ok {
		t.Fatal("the copy is not live after a clean pass")
	}
	if err := os.Rename(path+".next", path); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.RangeStream(0, 1); ok {
		t.Fatalf("the copy still serves ranges after a text of the same size and mtime (edge sum %d, not %d) was renamed over the path", sumB, sumA)
	}
	if got := edgeSum(collectAll(t, s)); got != sumA {
		t.Fatalf("pass after the rename: sum %d, want the open generation's %d", got, sumA)
	}
	if _, ok := s.RangeStream(0, 1); ok {
		t.Fatal("a copy was written again for a changed text")
	}
}
