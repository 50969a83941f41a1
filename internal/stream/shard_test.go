package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"degentri/internal/graph"
)

// shardTestEdges builds a recognizable edge list: edge i is (i, i+1).
func shardTestEdges(m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1}
	}
	return edges
}

// collectSharded runs a sharded pass and returns the edges seen per shard
// plus the merge order.
func collectSharded(t *testing.T, s Stream, m, workers int) (perShard [NumShards][]graph.Edge, mergeOrder []int) {
	t.Helper()
	var mu sync.Mutex
	n, err := ShardedForEachBatch(s, m, workers,
		func(shard int, batch []graph.Edge) error {
			mu.Lock()
			perShard[shard] = append(perShard[shard], batch...)
			mu.Unlock()
			return nil
		},
		func(shard int) error {
			mergeOrder = append(mergeOrder, shard)
			return nil
		})
	if err != nil {
		t.Fatalf("sharded pass (workers=%d): %v", workers, err)
	}
	if n != m {
		t.Fatalf("sharded pass saw %d edges, want %d", n, m)
	}
	return perShard, mergeOrder
}

func checkShardedResult(t *testing.T, edges []graph.Edge, perShard [NumShards][]graph.Edge, mergeOrder []int, workers int) {
	t.Helper()
	m := len(edges)
	if len(mergeOrder) != NumShards {
		t.Fatalf("workers=%d: %d merges, want %d", workers, len(mergeOrder), NumShards)
	}
	for k, got := range mergeOrder {
		if got != k {
			t.Fatalf("workers=%d: merge order %v not ascending", workers, mergeOrder)
		}
	}
	for k := 0; k < NumShards; k++ {
		lo, hi := ShardRange(m, k)
		want := edges[lo:hi]
		got := perShard[k]
		if len(got) != len(want) {
			t.Fatalf("workers=%d: shard %d saw %d edges, want %d", workers, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: shard %d edge %d = %v, want %v", workers, k, i, got[i], want[i])
			}
		}
	}
}

func TestShardedForEachBatchMemory(t *testing.T) {
	for _, m := range []int{0, 1, 63, 1000, 8192, 8192 + 17, 3*8192 + 11, 70000} {
		edges := shardTestEdges(m)
		for _, workers := range []int{1, 2, 4, 8} {
			s := NewPassCounter(FromEdges(edges))
			perShard, order := collectSharded(t, s, m, workers)
			checkShardedResult(t, edges, perShard, order, workers)
			if s.Passes() != 1 {
				t.Errorf("m=%d workers=%d: %d passes counted, want 1", m, workers, s.Passes())
			}
			if s.EdgesRead() != int64(m) {
				t.Errorf("m=%d workers=%d: %d reads counted, want %d", m, workers, s.EdgesRead(), m)
			}
		}
	}
}

func TestShardedForEachBatchWrongLength(t *testing.T) {
	edges := shardTestEdges(200)
	for _, workers := range []int{1, 4} {
		for _, m := range []int{199, 201} {
			_, err := ShardedForEachBatch(FromEdges(edges), m, workers,
				func(int, []graph.Edge) error { return nil },
				func(int) error { return nil })
			if err == nil {
				t.Errorf("workers=%d declared m=%d over 200 edges: no error", workers, m)
			}
		}
	}
}

func TestShardedForEachBatchFileStream(t *testing.T) {
	edges := shardTestEdges(30000)
	path := filepath.Join(t.TempDir(), "edges.txt")
	g := graph.FromEdges(0, edges)
	if err := WriteGraphFile(path, g, "shard test"); err != nil {
		t.Fatal(err)
	}
	fs := OpenFile(path)
	defer fs.Close()

	// Before any complete pass the stream has no copy: the sharded pass must
	// fall back to the sequential scan (and write the copy as it goes).
	if _, ok := fs.RangeStream(0, 0); ok {
		t.Fatal("FileStream offered range access before its first pass")
	}
	s := NewPassCounter(fs)
	perShard, order := collectSharded(t, s, len(edges), 4)
	checkShardedResult(t, edges, perShard, order, 4)

	// Now copied: the same pass must take the parallel path and agree.
	if _, ok := fs.RangeStream(0, 0); !ok {
		t.Fatal("FileStream has no range access after a complete pass")
	}
	perShard, order = collectSharded(t, s, len(edges), 4)
	checkShardedResult(t, edges, perShard, order, 4)
	if s.Passes() != 2 {
		t.Errorf("%d passes counted, want 2", s.Passes())
	}
	if s.EdgesRead() != int64(2*len(edges)) {
		t.Errorf("%d reads counted, want %d", s.EdgesRead(), 2*len(edges))
	}
}

func TestFileRangeStream(t *testing.T) {
	edges := shardTestEdges(25000)
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := WriteGraphFile(path, graph.FromEdges(0, edges), "range test"); err != nil {
		t.Fatal(err)
	}
	fs := OpenFile(path)
	defer fs.Close()
	if _, err := CountEdges(fs); err != nil {
		t.Fatal(err)
	}
	// Ranges at the file start/end and straddling 1024-edge strides.
	for _, r := range [][2]int{{0, 10}, {1020, 1030}, {1024, 2048}, {24990, 25000}, {0, 25000}, {700, 700}} {
		sub, ok := fs.RangeStream(r[0], r[1])
		if !ok {
			t.Fatalf("RangeStream(%d,%d) unavailable", r[0], r[1])
		}
		got, err := Collect(sub)
		if err != nil {
			t.Fatalf("range [%d,%d): %v", r[0], r[1], err)
		}
		if c, isCloser := sub.(interface{ Close() error }); isCloser {
			c.Close()
		}
		if len(got) != r[1]-r[0] {
			t.Fatalf("range [%d,%d) yielded %d edges", r[0], r[1], len(got))
		}
		for i, e := range got {
			if e != edges[r[0]+i] {
				t.Fatalf("range [%d,%d) edge %d = %v, want %v", r[0], r[1], i, e, edges[r[0]+i])
			}
		}
	}
}

// TestFileIndexCacheAcrossOpens pins that the .bex v2 copy lives with one
// FileStream and is not shared between opens: a fresh stream over a path
// another stream has already copied gets no range access and no length
// until it completes a pass of its own, and then its ranges deliver exactly
// the edges of a sequential pass, across block boundaries and at the file
// end.
func TestFileIndexCacheAcrossOpens(t *testing.T) {
	edges := make([]graph.Edge, 3*DefaultBlockEdges+17)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1}
	}
	path := filepath.Join(t.TempDir(), "reopened.txt")
	writeEdgeFileAt(t, path, edges)

	for open := 0; open < 2; open++ {
		fs := OpenFile(path)
		if _, ok := fs.RangeStream(0, 0); ok {
			t.Fatalf("open %d: range access available before any pass completed", open)
		}
		if _, known := fs.Len(); known {
			t.Fatalf("open %d: length known before any pass completed", open)
		}
		if n, err := CountEdges(fs); err != nil || n != len(edges) {
			t.Fatalf("open %d: counting pass: %d, %v", open, n, err)
		}
		for _, r := range [][2]int{{0, 5}, {DefaultBlockEdges - 1, DefaultBlockEdges + 3}, {len(edges) - 4, len(edges)}} {
			sub, ok := fs.RangeStream(r[0], r[1])
			if !ok {
				t.Fatalf("open %d: range [%d,%d) unavailable", open, r[0], r[1])
			}
			got, err := Collect(sub)
			if c, isCloser := sub.(interface{ Close() error }); isCloser {
				c.Close()
			}
			if err != nil {
				t.Fatalf("open %d: range [%d,%d): %v", open, r[0], r[1], err)
			}
			if len(got) != r[1]-r[0] {
				t.Fatalf("open %d: range [%d,%d): %d edges", open, r[0], r[1], len(got))
			}
			for i, e := range got {
				if want := edges[r[0]+i]; e != want {
					t.Fatalf("open %d: range [%d,%d) edge %d = %v, want %v", open, r[0], r[1], i, e, want)
				}
			}
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// copyTempDir points TMPDIR at a fresh directory for the rest of the test,
// so the test can watch the .bex v2 copies a FileStream writes there.
func copyTempDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "tmp")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", dir)
	return dir
}

// textCopies lists the FileStream copies in dir.
func textCopies(t *testing.T, dir string) []string {
	t.Helper()
	copies, err := filepath.Glob(filepath.Join(dir, "degentri-text-*"))
	if err != nil {
		t.Fatal(err)
	}
	return copies
}

// TestFileStreamCopy pins the text path's one range mechanism: the first
// pass leaves exactly one .bex v2 copy in TMPDIR, later passes and ranges
// that cross block boundaries deliver exactly the first pass's edges, and
// Close leaves TMPDIR empty.
func TestFileStreamCopy(t *testing.T) {
	edges := shardTestEdges(3*DefaultBlockEdges + 17)
	path := filepath.Join(t.TempDir(), "edges.txt")
	writeEdgeFileAt(t, path, edges)
	tmp := copyTempDir(t)

	fs := OpenFile(path)
	defer fs.Close()
	want := collectAll(t, fs)
	sameEdges(t, want, edges, "first pass")
	if copies := textCopies(t, tmp); len(copies) != 1 {
		t.Fatalf("after the first pass TMPDIR holds copies %v, want exactly one", copies)
	}
	sameEdges(t, collectAll(t, fs), want, "pass served by the copy")
	b := DefaultBlockEdges
	for _, r := range [][2]int{{b - 3, b + 3}, {0, 2*b + 1}, {b, 2 * b}, {2*b - 1, len(edges)}, {len(edges), len(edges)}} {
		sub, ok := fs.RangeStream(r[0], r[1])
		if !ok {
			t.Fatalf("range [%d,%d) unavailable after the first pass", r[0], r[1])
		}
		got := collectAll(t, sub)
		if c, isCloser := sub.(interface{ Close() error }); isCloser {
			c.Close()
		}
		sameEdges(t, got, want[r[0]:r[1]], fmt.Sprintf("range [%d,%d)", r[0], r[1]))
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Fatalf("after Close TMPDIR holds %v (%v), want nothing", left, err)
	}
}

// TestFileStreamUncopyableText pins the path without a copy: a vertex ID
// the .bex v2 format cannot hold (≥ 2^31) makes the copy unwritable, so the
// stream drops it without failing the pass, re-parses the text on every
// pass with identical results, never offers range access, and leaves no
// temp file behind.
func TestFileStreamUncopyableText(t *testing.T) {
	edges := shardTestEdges(2*DefaultBlockEdges + 9)
	edges[DefaultBlockEdges+1] = graph.Edge{U: 1 << 31, V: 7} // the second block
	path := filepath.Join(t.TempDir(), "wide.txt")
	writeEdgeFileAt(t, path, edges)
	tmp := copyTempDir(t)

	fs := OpenFile(path)
	defer fs.Close()
	for pass := 0; pass < 3; pass++ {
		sameEdges(t, collectAll(t, fs), edges, fmt.Sprintf("pass %d", pass))
		if _, ok := fs.RangeStream(0, 0); ok {
			t.Fatalf("pass %d: range access over a text with no copy", pass)
		}
		if copies := textCopies(t, tmp); len(copies) != 0 {
			t.Fatalf("pass %d: TMPDIR holds copies %v, want none", pass, copies)
		}
	}
	if m, ok := fs.Len(); !ok || m != len(edges) {
		t.Fatalf("Len = %d,%v, want %d,true", m, ok, len(edges))
	}
}

func TestBexRoundTrip(t *testing.T) {
	edges := shardTestEdges(20000)
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.bex")
	if n, err := WriteBexFile(path, FromEdges(edges)); err != nil || n != len(edges) {
		t.Fatalf("WriteBexFile = %d, %v", n, err)
	}
	bs, err := OpenBex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	if m, ok := bs.Len(); !ok || m != len(edges) {
		t.Fatalf("Len = %d,%v, want %d,true", m, ok, len(edges))
	}
	got, err := Collect(bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	// Sharded pass over the binary stream, all worker counts.
	for _, workers := range []int{1, 4} {
		s := NewPassCounter(bs)
		perShard, order := collectSharded(t, s, len(edges), workers)
		checkShardedResult(t, edges, perShard, order, workers)
	}
	// Range access straight from offsets.
	sub, ok := bs.RangeStream(1234, 1300)
	if !ok {
		t.Fatal("BexStream range unavailable")
	}
	rangeEdges, err := Collect(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(rangeEdges) != 66 || rangeEdges[0] != edges[1234] {
		t.Fatalf("bex range wrong: %d edges, first %v", len(rangeEdges), rangeEdges[0])
	}
}

func TestOpenAuto(t *testing.T) {
	edges := shardTestEdges(100)
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	bex := filepath.Join(dir, "g.bex")
	if err := WriteGraphFile(txt, graph.FromEdges(0, edges), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteBexFile(bex, FromEdges(edges)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{txt, bex} {
		s, err := OpenAuto(path)
		if err != nil {
			t.Fatalf("OpenAuto(%s): %v", path, err)
		}
		n, err := CountEdges(s)
		s.Close()
		if err != nil || n != len(edges) {
			t.Fatalf("OpenAuto(%s): %d edges, %v", path, n, err)
		}
	}
	// A text file masquerading as .bex must fail cleanly at open.
	fake := filepath.Join(dir, "fake.bex")
	if err := os.WriteFile(fake, []byte("1 2\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAuto(fake); err == nil {
		t.Fatal("OpenAuto accepted a text file with a .bex extension")
	}
}

// TestShardedParallelEmptyShardBurst is the regression test for a token
// deadlock: with a stream short enough that most of the 64-shard grid is
// empty, fast workers used to claim-and-complete the empty tail while an
// earlier real shard's claimer waited for a token the merger could never
// release. Tokens are now acquired before claiming, so the burst cannot
// starve an earlier shard.
func TestShardedParallelEmptyShardBurst(t *testing.T) {
	edges := shardTestEdges(2*8192 + 5) // 3 active shards, 61 empty
	for round := 0; round < 50; round++ {
		s := FromEdges(edges)
		n, err := ShardedForEachBatch(s, len(edges), 8,
			func(int, []graph.Edge) error { return nil },
			func(int) error { return nil })
		if err != nil || n != len(edges) {
			t.Fatalf("round %d: n=%d err=%v", round, n, err)
		}
	}
}
