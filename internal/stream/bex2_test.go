package stream

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"degentri/internal/graph"
)

// bex2TestEdges builds m edges with the mixed small/large deltas a
// canonicalized graph produces, plus a few adversarial jumps that force
// multi-byte varints and negative deltas.
func bex2TestEdges(m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		switch i % 7 {
		case 0:
			edges[i] = graph.Edge{U: i % 1200, V: (i % 1200) + 1}
		case 3:
			edges[i] = graph.Edge{U: 1<<30 - i%97, V: i % 13}
		default:
			edges[i] = graph.Edge{U: i % 977, V: 977 + i%991}
		}
	}
	return edges
}

// collectAll runs one full pass and returns every edge.
func collectAll(t *testing.T, s Stream) []graph.Edge {
	t.Helper()
	got, err := Collect(s)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return got
}

func sameEdges(t *testing.T, got, want []graph.Edge, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// hideLen masks a stream's length so WriteBex2 must take the
// patch-afterwards path that relies on the writer being seekable.
type hideLen struct{ Stream }

func (hideLen) Len() (int, bool) { return 0, false }

type writerOnly struct{ n int }

func (w *writerOnly) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestBex2RoundTrip pins the v2 codec: the reader returns the written edges
// exactly, across block sizes that exercise partial final blocks,
// single-edge blocks, and an empty stream, over repeated passes.
func TestBex2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name       string
		m          int
		blockEdges int
	}{
		{"empty", 0, 64},
		{"one-edge", 1, 64},
		{"one-block", 50, 64},
		{"exact-blocks", 256, 64},
		{"partial-tail", 1000, 64},
		{"tiny-blocks", 300, 1},
		{"default-blocks", 5000, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edges := bex2TestEdges(tc.m)
			path := filepath.Join(t.TempDir(), "g.bex")
			n, err := WriteBex2File(path, FromEdges(edges), tc.blockEdges)
			if err != nil || n != tc.m {
				t.Fatalf("WriteBex2File = %d, %v", n, err)
			}
			s, err := OpenBex2(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if m, known := s.Len(); !known || m != tc.m {
				t.Fatalf("Len = %d, %v", m, known)
			}
			for pass := 0; pass < 2; pass++ {
				sameEdges(t, collectAll(t, s), edges, "pass")
			}
			// Close then Reset must work, as for every file-backed stream.
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			sameEdges(t, collectAll(t, s), edges, "after close")
			s.Close()
		})
	}
}

// TestBex2NextMatchesNextBatch pins the two read paths against each other.
func TestBex2NextMatchesNextBatch(t *testing.T) {
	edges := bex2TestEdges(500)
	path := filepath.Join(t.TempDir(), "g.bex")
	if _, err := WriteBex2File(path, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	s, err := OpenBex2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	for i, want := range edges {
		e, err := s.Next()
		if err != nil {
			t.Fatalf("Next at %d: %v", i, err)
		}
		if e != want {
			t.Fatalf("Next %d = %v, want %v", i, e, want)
		}
	}
	if _, err := s.Next(); err != ErrEndOfPass {
		t.Fatalf("after last edge: %v", err)
	}
}

// TestBex2WritePatchesUnknownLength pins the header patch path: a seekable
// writer with an unknown stream length gets the count patched afterwards.
func TestBex2WritePatchesUnknownLength(t *testing.T) {
	edges := bex2TestEdges(200)
	path := filepath.Join(t.TempDir(), "g.bex")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := WriteBex2(f, hideLen{FromEdges(edges)}, 64)
	if err != nil || n != len(edges) {
		t.Fatalf("WriteBex2 = %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenBex2(path)
	if err != nil {
		t.Fatalf("patched file rejected: %v", err)
	}
	defer s.Close()
	sameEdges(t, collectAll(t, s), edges, "patched")

	var sink writerOnly
	if _, err := WriteBex2(&sink, hideLen{FromEdges(edges)}, 64); err == nil {
		t.Fatal("unknown length + non-seekable writer must error")
	}
}

// TestWriteBexAtNonzeroOffset pins the header patch to the header's own
// base offset: a seekable writer positioned mid-file (a .bex section
// appended after other content) must not have its first bytes overwritten
// when the unknown length is patched in.
func TestWriteBexAtNonzeroOffset(t *testing.T) {
	edges := bex2TestEdges(200)
	path := filepath.Join(t.TempDir(), "offset.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("CONTAINER-HEADER")
	if _, err := f.Write(prefix); err != nil {
		t.Fatal(err)
	}
	n, err := WriteBex2(f, hideLen{FromEdges(edges)}, 64)
	if err != nil || n != len(edges) {
		t.Fatalf("WriteBex2 = %d, %v", n, err)
	}
	// The writer is left at the end of the section, ready for more content.
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if end != int64(len(raw)) {
		t.Fatalf("writer left at offset %d, want the section end %d", end, len(raw))
	}
	if string(raw[:len(prefix)]) != string(prefix) {
		t.Fatalf("prefix overwritten: %q", raw[:len(prefix)])
	}
	// The header at the section's base holds the patched count. (The
	// section does not open on its own: block and footer offsets are
	// absolute file offsets.)
	header := raw[len(prefix):]
	if string(header[:4]) != bex2Magic {
		t.Fatalf("section magic = %q", header[:4])
	}
	if got := binary.LittleEndian.Uint64(header[8:]); got != uint64(len(edges)) {
		t.Fatalf("patched edge count = %d, want %d", got, len(edges))
	}
	if string(raw[len(raw)-4:]) != bex2TailMagic {
		t.Fatalf("section does not end in the tail magic: %q", raw[len(raw)-4:])
	}
}

// TestBex2RangeStream pins range semantics: every [lo, hi) window — aligned,
// straddling block boundaries, within one block, empty — yields exactly the
// window's edges.
func TestBex2RangeStream(t *testing.T) {
	edges := bex2TestEdges(700)
	path := filepath.Join(t.TempDir(), "g.bex")
	if _, err := WriteBex2File(path, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	bs, err := OpenBex2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	for _, win := range [][2]int{
		{0, 0}, {0, 700}, {0, 64}, {64, 128}, {10, 20}, {60, 70},
		{63, 65}, {640, 700}, {699, 700}, {0, 1}, {130, 530},
	} {
		sub, ok := bs.RangeStream(win[0], win[1])
		if !ok {
			t.Fatalf("RangeStream(%d, %d) unavailable", win[0], win[1])
		}
		sameEdges(t, collectAll(t, sub), edges[win[0]:win[1]], "range")
		if c, ok := sub.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	if _, ok := bs.RangeStream(0, 701); ok {
		t.Fatal("out-of-bounds range accepted")
	}
}

// TestBex2OpenFileServesOneGeneration pins that an open .bex v2 stream reads
// the file it opened, not whatever its path names later. B swaps the
// endpoints of A's edges, so it has A's block geometry and its blocks decode
// cleanly under A's footer (their CRCs were checked on A's first pass and
// are not checked again): a reader that reopened the path would deliver B's
// edges without an error. After B is renamed over the path, every sharded
// pass must still deliver exactly A's edges, with the decoded-block cache on
// or off, and a Reset after Close must refuse the path.
func TestBex2OpenFileServesOneGeneration(t *testing.T) {
	resetDecodeEngine(t, DefaultDecodeCacheBytes)
	const m = 40_000
	a := shardTestEdges(m)
	b := make([]graph.Edge, m)
	for i, e := range a {
		b[i] = graph.Edge{U: e.V, V: e.U}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bex")
	// openAThenRenameB opens A at path, runs one pass, and renames B over
	// path; closeFirst closes the stream between the pass and the rename.
	openAThenRenameB := func(cache, closeFirst bool) FileBacked {
		t.Helper()
		if _, err := WriteBex2File(path, FromEdges(a), 1024); err != nil {
			t.Fatal(err)
		}
		s, err := OpenAutoOpts(path, OpenOptions{DecodeCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		sameEdges(t, collectAll(t, s), a, "first pass")
		if closeFirst {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		other := filepath.Join(dir, "b.bex")
		if _, err := WriteBex2File(other, FromEdges(b), 1024); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(other, path); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, cache := range []bool{false, true} {
		s := openAThenRenameB(cache, false)
		for _, workers := range []int{1, 2, 4, 8} {
			perShard, order := collectSharded(t, s, m, workers)
			checkShardedResult(t, a, perShard, order, workers)
		}
		s.Close()
	}
	s := openAThenRenameB(false, true)
	if err := s.Reset(); !errors.Is(err, ErrCorruptHeader) {
		t.Fatalf("Reset after B replaced the closed file = %v, want ErrCorruptHeader", err)
	}
}

// TestBex2WriteReplacesOnlyOnSuccess pins that writing a .bex file replaces
// its path only once the whole file is written: a write that fails leaves
// the file already there byte-identical and no temporary file behind, and a
// conversion may write over the file it is reading.
func TestBex2WriteReplacesOnlyOnSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bex")
	edges := bex2TestEdges(5000)
	if _, err := WriteBex2File(path, FromEdges(edges), 256); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([]graph.Edge{}, edges[:300]...), graph.Edge{U: 0, V: 3_000_000_000})
	if _, err := WriteBex2File(path, FromEdges(bad), 256); err == nil {
		t.Fatal("writing an edge that does not fit int32 succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil || string(after) != string(before) {
		t.Fatalf("a failed write changed the existing file (%d bytes, was %d; %v)", len(after), len(before), err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("files after a failed write: %v, want only %s", names, path)
	}

	// In place: the stream reads path while the writer replaces it.
	s, err := OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := WriteBex2File(path, s, 64)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil || n != len(edges) {
		t.Fatalf("in-place rewrite: %d edges, %v", n, err)
	}
	s, err = OpenAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sameEdges(t, collectAll(t, s), edges, "in-place rewrite")
}

// TestBex2ShardedPassReusesBuffers pins the open file's buffer pool: the
// range sub-streams of an uncached sharded pass borrow their read-ahead and
// decode buffers from it instead of allocating a set per shard. After a
// warm-up pass, a whole 64-shard pass at 4 workers allocates less than
// workers+2 buffer sets, where one set per shard would be 64.
func TestBex2ShardedPassReusesBuffers(t *testing.T) {
	const workers, blockEdges = 4, 1024
	m := NumShards * shardTargetEdges
	if ActiveShards(m) != NumShards {
		t.Fatalf("%d edges make %d shards, want %d", m, ActiveShards(m), NumShards)
	}
	path := filepath.Join(t.TempDir(), "g.bex")
	if _, err := WriteBex2File(path, FromEdges(bex2TestEdges(m)), blockEdges); err != nil {
		t.Fatal(err)
	}
	s, err := OpenBex2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A set is counted as the largest shard's bytes plus one decoded block:
	// the least a range allocates when it has buffers of its own.
	f := s.cur.file
	var set int64
	for k := 0; k < NumShards; k++ {
		lo, hi := ShardRange(m, k)
		first, last := f.blocks[f.findBlock(lo)], f.blocks[f.findBlock(hi-1)]
		set = max(set, last.off+int64(last.length)-first.off)
	}
	set += blockEdges * int64(unsafe.Sizeof(graph.Edge{}))
	pass := func() {
		t.Helper()
		if _, err := ShardedForEachBatch(s, m, workers,
			func(int, []graph.Edge) error { return nil },
			func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(workers+2)*uint64(set); got > limit {
		t.Fatalf("uncached sharded pass allocated %d bytes, over %d (%d buffer sets of %d bytes)",
			got, limit, workers+2, set)
	}
}

// TestBex2NoFirstScanIndexBuild is the acceptance pin for the tentpole: a
// fresh v2 file serves shard ranges from byte zero — RangeStream is
// available before any pass, and a sharded multi-worker pass costs exactly
// one logical Reset with every edge read exactly once. The text path, by
// contrast, needs a first full scan to write its v2 copy; v2 has no such
// path by construction.
func TestBex2NoFirstScanIndexBuild(t *testing.T) {
	edges := bex2TestEdges(40_000)
	path := filepath.Join(t.TempDir(), "g.bex")
	if _, err := WriteBex2File(path, FromEdges(edges), 512); err != nil {
		t.Fatal(err)
	}
	t.Run("bex2", func(t *testing.T) {
		fb, err := OpenBex2(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fb.Close()
		// Range access must work on a freshly opened stream, before any pass.
		if _, ok := fb.RangeStream(0, 0); !ok {
			t.Fatal("RangeStream unavailable before the first pass")
		}
		pc := NewPassCounter(fb)
		if _, err := ShardedForEachBatch(pc, len(edges), 4,
			func(int, []graph.Edge) error { return nil },
			func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if got := pc.Passes(); got != 1 {
			t.Fatalf("sharded pass cost %d logical passes, want 1 (no index-build scan)", got)
		}
		if got := pc.EdgesRead(); got != int64(len(edges)) {
			t.Fatalf("sharded pass read %d edges, want %d (no extra scan)", got, len(edges))
		}
	})
}

// corrupt writes a mutated copy of raw and returns its path.
func corrupt(t *testing.T, dir, name string, raw []byte, mutate func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenBex2ValidatesContainer is the container corruption suite: every
// way the container metadata can lie — truncation, resize, forged counts,
// footer damage — fails at OpenBex2 with the right sentinel, never as a
// wrong answer or a mid-pass surprise.
func TestOpenBex2ValidatesContainer(t *testing.T) {
	edges := bex2TestEdges(1000)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bex")
	if _, err := WriteBex2File(good, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrCorruptHeader},
		{"too-short", func(b []byte) []byte { return b[:40] }, ErrCorruptHeader},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-7] }, ErrTruncated},
		{"truncated-footer", func(b []byte) []byte {
			// Drop one footer record but keep the tail intact: geometry check.
			return append(append([]byte(nil), b[:len(b)-bex2TailSize-bex2FooterRec]...), b[len(b)-bex2TailSize:]...)
		}, ErrCorruptHeader},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xAA) }, ErrTruncated},
		{"lying-edge-count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], uint64(len(edges)+7))
			return b
		}, ErrCorruptHeader},
		{"implausible-block-size", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 0)
			return b
		}, ErrCorruptHeader},
		{"footer-bit-flip", func(b []byte) []byte {
			b[len(b)-bex2TailSize-bex2FooterRec+16] ^= 1 // a block count in the footer
			return b
		}, ErrCorruptHeader},
		{"tail-block-count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-bex2TailSize+8:], 3)
			return b
		}, ErrCorruptHeader},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := corrupt(t, dir, tc.name+".bex", raw, tc.mutate)
			_, err := OpenBex2(path)
			if err == nil {
				t.Fatal("corrupt container accepted at open")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
}

// TestBex2BlockCorruptionFailsDeterministically pins the block-payload
// contract: a bit flip inside a block passes open (the container geometry is
// intact) but fails with ErrCorruptBlock the first time that block is read —
// on the full pass and on a range that touches it — and never decodes to
// silently wrong edges.
func TestBex2BlockCorruptionFailsDeterministically(t *testing.T) {
	edges := bex2TestEdges(1000)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bex")
	if _, err := WriteBex2File(good, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the payload of the fourth block (positions 192-255).
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
	s, err := OpenBex2(path)
	if err != nil {
		t.Fatalf("block corruption must not fail at open (container is intact): %v", err)
	}
	defer s.Close()
	if _, err := Collect(s); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("full pass error %v, want ErrCorruptBlock", err)
	}
	// A range inside the damaged block hits the same error; a range that
	// avoids it still succeeds.
	sub, _ := s.RangeStream(200, 210)
	if _, err := Collect(sub); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("range over damaged block: %v, want ErrCorruptBlock", err)
	}
	clean, _ := s.RangeStream(0, 192)
	got, err := Collect(clean)
	if err != nil {
		t.Fatalf("range over clean blocks: %v", err)
	}
	sameEdges(t, got, edges[:192], "clean range")
}

// TestOpenAutoDispatch pins content-first dispatch: text and .bex v2 open
// as themselves whatever the file is named, the Backend strings are stable,
// and binary-looking input that is not v2 fails in OpenAuto itself, with
// ErrCorruptHeader and an error naming .bex v2, not at the first pass.
func TestOpenAutoDispatch(t *testing.T) {
	edges := bex2TestEdges(300)
	dir := t.TempDir()

	text := filepath.Join(dir, "g.txt")
	tf, err := os.Create(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteEdgeList(tf, FromEdges(edges)); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "g2.bex")
	if _, err := WriteBex2File(v2, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}
	// A v2 file without the .bex extension: magic sniffing must still win.
	v2odd := filepath.Join(dir, "g2.dat")
	if _, err := WriteBex2File(v2odd, FromEdges(edges), 64); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		path    string
		backend string
	}{
		{text, BackendText},
		{v2, BackendBex2},
		{v2odd, BackendBex2},
	} {
		s, err := OpenAuto(tc.path)
		if err != nil {
			t.Fatalf("OpenAuto(%s): %v", tc.path, err)
		}
		if got := BackendOf(s); got != tc.backend {
			t.Fatalf("BackendOf(%s) = %q, want %q", tc.path, got, tc.backend)
		}
		sameEdges(t, collectAll(t, s), edges, tc.backend)
		s.Close()
	}
	if got := BackendOf(FromEdges(edges)); got != BackendMemory {
		t.Fatalf("BackendOf(memory) = %q", got)
	}

	// The retired formats and other non-v2 binaries.
	v1 := filepath.Join(dir, "old.edges") // not a .bex name: the magic decides
	if err := os.WriteFile(v1, []byte("BEX1\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	textBex := filepath.Join(dir, "text.bex")
	if err := os.WriteFile(textBex, []byte("1 2\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.bex")
	if err := os.WriteFile(short, []byte("BE"), 0o644); err != nil {
		t.Fatal(err)
	}
	bexdDir := filepath.Join(dir, "g.bexd")
	if err := os.Mkdir(bexdDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v1, textBex, short, bexdDir} {
		s, err := OpenAuto(path)
		if err == nil {
			s.Close()
			t.Fatalf("OpenAuto(%s) accepted a file that is not .bex v2", path)
		}
		if !errors.Is(err, ErrCorruptHeader) || !strings.Contains(err.Error(), ".bex v2") {
			t.Fatalf("OpenAuto(%s) = %v, want ErrCorruptHeader naming .bex v2", path, err)
		}
	}
}
