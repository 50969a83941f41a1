package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/graph"
)

func writeEdgeFileAt(t *testing.T, path string, edges []graph.Edge) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		fmt.Fprintf(f, "%d %d\n", e.U, e.V)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// cappedOpener opens files through handles that report a clean io.EOF once
// the absolute offset reaches limit — a silent short read below the text
// parser, indistinguishable from a well-formed end of file.
func cappedOpener(limit int64) Opener {
	return func(path string) (io.ReadSeekCloser, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return &cappedHandle{f: f, limit: limit}, nil
	}
}

type cappedHandle struct {
	f     *os.File
	limit int64
}

func (c *cappedHandle) Read(p []byte) (int, error) {
	off, err := c.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	if off >= c.limit {
		return 0, io.EOF
	}
	if int64(len(p)) > c.limit-off {
		p = p[:c.limit-off]
	}
	return c.f.Read(p)
}

func (c *cappedHandle) Seek(offset int64, whence int) (int64, error) {
	return c.f.Seek(offset, whence)
}

func (c *cappedHandle) Close() error { return c.f.Close() }

// TestShortReadIsTransientAndBuildsNoIndex pins the short-read guard: a
// pass whose reader silently drops the file's tail (clean EOF at a line
// boundary — the parser cannot tell) must fail with a transient truncation
// error and must NOT keep its partial .bex v2 copy or length, or the
// stream's later passes would read a truncated graph. Once the reader heals,
// a clean pass on the same stream sees every edge and serves exact ranges.
func TestShortReadIsTransientAndBuildsNoIndex(t *testing.T) {
	edges := make([]graph.Edge, 2*DefaultBlockEdges+5)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
	}
	path := filepath.Join(t.TempDir(), "short.txt")
	writeEdgeFileAt(t, path, edges)

	// Cut at the line boundary after one block+3 edges, so the capped pass
	// fills at least one whole block of the copy (it has a block it would
	// love to keep) and ends looking exactly like a complete file.
	cut := DefaultBlockEdges + 3
	var limit int64
	for _, e := range edges[:cut] {
		limit += int64(len(fmt.Sprintf("%d %d\n", e.U, e.V)))
	}

	capped := true
	fs := OpenFileWith(path, func(path string) (io.ReadSeekCloser, error) {
		if capped {
			return cappedOpener(limit)(path)
		}
		return os.Open(path)
	})
	defer fs.Close()
	n, err := CountEdges(fs)
	if err == nil {
		t.Fatalf("capped pass returned no error (%d edges)", n)
	}
	if !IsTransient(err) || !errors.Is(err, ErrTruncated) {
		t.Fatalf("capped pass error = %v, want transient ErrTruncated", err)
	}
	if _, ok := fs.RangeStream(0, 0); ok {
		t.Fatal("capped stream kept range access from an incomplete pass")
	}
	if m, known := fs.Len(); known {
		t.Fatalf("capped stream recorded length %d from an incomplete pass", m)
	}

	// Heal the reader: Close drops the capped handle, so the next pass (and
	// every range it hands out) opens the whole file.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	capped = false
	if n, err := CountEdges(fs); err != nil || n != len(edges) {
		t.Fatalf("clean pass after capped pass: %d, %v (want %d, nil)", n, err, len(edges))
	}
	for _, r := range [][2]int{{cut - 2, cut + 2}, {2*DefaultBlockEdges - 1, len(edges)}} {
		sub, ok := fs.RangeStream(r[0], r[1])
		if !ok {
			t.Fatalf("range [%d,%d) unavailable after a clean pass", r[0], r[1])
		}
		got, err := Collect(sub)
		if err != nil {
			t.Fatal(err)
		}
		sameEdges(t, got, edges[r[0]:r[1]], "range after healed pass")
	}
}

// TestFileStreamTruncatedAfterCopy pins the copy's staleness guard: a text
// truncated after the pass that copied it is re-read, not served from the
// stale copy, so its next pass fails with the short-read guard's transient
// ErrTruncated. The stream keeps the length of its clean pass and loses its
// range access.
func TestFileStreamTruncatedAfterCopy(t *testing.T) {
	edges := make([]graph.Edge, 2*DefaultBlockEdges+5)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
	}
	path := filepath.Join(t.TempDir(), "shrinking.txt")
	writeEdgeFileAt(t, path, edges)
	copyTempDir(t)

	fs := OpenFile(path)
	defer fs.Close()
	if n, err := CountEdges(fs); err != nil || n != len(edges) {
		t.Fatalf("first pass: %d, %v (want %d, nil)", n, err, len(edges))
	}
	// Cut at a line boundary, so the shorter text still parses cleanly.
	var limit int64
	for _, e := range edges[:DefaultBlockEdges+3] {
		limit += int64(len(fmt.Sprintf("%d %d\n", e.U, e.V)))
	}
	if err := os.Truncate(path, limit); err != nil {
		t.Fatal(err)
	}
	n, err := CountEdges(fs)
	if !IsTransient(err) || !errors.Is(err, ErrTruncated) {
		t.Fatalf("pass over the truncated text = %d, %v; want transient ErrTruncated", n, err)
	}
	if m, known := fs.Len(); !known || m != len(edges) {
		t.Fatalf("Len after the failed pass = %d,%v, want %d,true", m, known, len(edges))
	}
	if _, ok := fs.RangeStream(0, 0); ok {
		t.Fatal("range access still served from the copy of a changed text")
	}
}

// TestTransientReadRetryHealsCountingPass pins whole-pass retry at the read
// layer: a counting pass whose first attempts die on injected transient
// errors succeeds once the opener heals, and reports the retries it spent.
func TestTransientReadRetryHealsCountingPass(t *testing.T) {
	edges := make([]graph.Edge, 2000)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i % 101), V: int32(101 + i%97)}
	}
	path := filepath.Join(t.TempDir(), "flaky.txt")
	writeEdgeFileAt(t, path, edges)

	// The handle fails transiently 512 bytes into each of the first two
	// attempts, then behaves; whole-pass retry re-reads from the start.
	flaky := func(path string) (io.ReadSeekCloser, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return &failingHandle{f: f, after: 512, failures: 2}, nil
	}
	fs := OpenFileWith(path, flaky)
	defer fs.Close()
	n, retries, err := CountEdgesCtx(context.Background(), fs, DefaultRetryPolicy())
	if err != nil {
		t.Fatalf("counting pass did not heal: %v", err)
	}
	if n != len(edges) {
		t.Fatalf("healed pass counted %d edges, want %d", n, len(edges))
	}
	if retries != 2 {
		t.Fatalf("healed pass reported %d retries, want 2", retries)
	}
}

// failingHandle fails transiently once `after` bytes have been read, a
// bounded number of times; rewinding to the start begins a fresh attempt.
type failingHandle struct {
	f        *os.File
	after    int64
	read     int64
	failures int
}

func (h *failingHandle) Read(p []byte) (int, error) {
	if h.failures > 0 {
		if h.read >= h.after {
			h.failures--
			return 0, MarkTransient(errors.New("injected handle failure"))
		}
		if int64(len(p)) > h.after-h.read {
			p = p[:h.after-h.read]
		}
	}
	n, err := h.f.Read(p)
	h.read += int64(n)
	return n, err
}

func (h *failingHandle) Seek(offset int64, whence int) (int64, error) {
	n, err := h.f.Seek(offset, whence)
	if err == nil && whence == io.SeekStart {
		h.read = offset
	}
	return n, err
}

func (h *failingHandle) Close() error { return h.f.Close() }
