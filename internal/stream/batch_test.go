package stream

import (
	"os"
	"path/filepath"
	"testing"

	"degentri/internal/graph"
)

func testEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
	}
	return edges
}

func writeEdgeFile(t *testing.T, edges []graph.Edge) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.txt")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if _, err := file.WriteString("# comment header\n\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteEdgeList(file, FromEdges(edges)); err != nil {
		t.Fatal(err)
	}
	return path
}

// collectViaNext drains one pass with Next.
func collectViaNext(t *testing.T, s Stream) []graph.Edge {
	t.Helper()
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	var out []graph.Edge
	for {
		e, err := s.Next()
		if err == ErrEndOfPass {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

// collectViaBatch drains one pass with NextBatch and the given scratch
// buffer size (0 means nil buf).
func collectViaBatch(t *testing.T, s Stream, bufSize int) []graph.Edge {
	t.Helper()
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	var buf []graph.Edge
	if bufSize > 0 {
		buf = make([]graph.Edge, bufSize)
	}
	var out []graph.Edge
	for {
		batch, err := s.NextBatch(buf)
		if err == ErrEndOfPass {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			t.Fatal("NextBatch returned an empty batch with nil error")
		}
		if bufSize > 0 && len(batch) > bufSize {
			t.Fatalf("batch of %d edges exceeds buffer size %d", len(batch), bufSize)
		}
		out = append(out, batch...)
	}
}

// TestNextBatchEquivalence checks that batched iteration yields exactly the
// Next() sequence for every Stream implementation, across batch sizes that
// exercise partial final batches.
func TestNextBatchEquivalence(t *testing.T) {
	edges := testEdges(97) // prime count: every buffer size ends with a partial batch
	path := writeEdgeFile(t, edges)

	// A file stream keeps a .bex v2 copy in the temp directory until closed.
	openFile := func() *FileStream {
		fs := OpenFile(path)
		t.Cleanup(func() { fs.Close() })
		return fs
	}
	streams := map[string]func() Stream{
		"memory":             func() Stream { return FromEdges(edges) },
		"file":               func() Stream { return openFile() },
		"passcounter-memory": func() Stream { return NewPassCounter(FromEdges(edges)) },
		"passcounter-file":   func() Stream { return NewPassCounter(openFile()) },
	}
	for name, mk := range streams {
		want := collectViaNext(t, mk())
		if len(want) != len(edges) {
			t.Fatalf("%s: Next pass saw %d edges, want %d", name, len(want), len(edges))
		}
		for _, bufSize := range []int{0, 1, 3, 7, 96, 97, 200} {
			s := mk()
			got := collectViaBatch(t, s, bufSize)
			if len(got) != len(want) {
				t.Fatalf("%s/buf=%d: %d edges, want %d", name, bufSize, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/buf=%d: edge %d = %v, want %v", name, bufSize, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNextBatchMixedWithNext checks that Next and NextBatch advance the same
// cursor within a pass.
func TestNextBatchMixedWithNext(t *testing.T) {
	edges := testEdges(10)
	s := FromEdges(edges)
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if e, err := s.Next(); err != nil || e != edges[0] {
		t.Fatalf("Next = %v, %v", e, err)
	}
	batch, err := s.NextBatch(make([]graph.Edge, 4))
	if err != nil || len(batch) != 4 || batch[0] != edges[1] {
		t.Fatalf("NextBatch = %v, %v", batch, err)
	}
	if e, err := s.Next(); err != nil || e != edges[5] {
		t.Fatalf("Next after batch = %v, %v", e, err)
	}
}

// TestNextBatchBeforeReset checks the ErrNoPass contract.
func TestNextBatchBeforeReset(t *testing.T) {
	if _, err := FromEdges(testEdges(3)).NextBatch(nil); err != ErrNoPass {
		t.Errorf("memory: err = %v, want ErrNoPass", err)
	}
	if _, err := OpenFile("nonexistent").NextBatch(nil); err != ErrNoPass {
		t.Errorf("file: err = %v, want ErrNoPass", err)
	}
}

// TestMemoryStreamBatchZeroCopy checks that MemoryStream batches alias the
// stream's backing slice instead of copying.
func TestMemoryStreamBatchZeroCopy(t *testing.T) {
	edges := testEdges(32)
	s := FromEdges(edges)
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	batch, err := s.NextBatch(make([]graph.Edge, 8))
	if err != nil {
		t.Fatal(err)
	}
	if &batch[0] != &s.Edges()[0] {
		t.Error("bounded batch does not alias the backing slice")
	}
	rest, err := s.NextBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != len(edges)-8 || &rest[0] != &s.Edges()[8] {
		t.Error("unbounded batch does not alias the remainder of the backing slice")
	}
}

// TestPassCounterBatchInvariance checks that pass and read accounting are
// identical whether a pass uses Next or NextBatch.
func TestPassCounterBatchInvariance(t *testing.T) {
	edges := testEdges(57)
	viaNext := NewPassCounter(FromEdges(edges))
	collectViaNext(t, viaNext)
	collectViaNext(t, viaNext)

	viaBatch := NewPassCounter(FromEdges(edges))
	collectViaBatch(t, viaBatch, 0)
	collectViaBatch(t, viaBatch, 10)

	if viaNext.Passes() != viaBatch.Passes() {
		t.Errorf("passes: %d via Next, %d via NextBatch", viaNext.Passes(), viaBatch.Passes())
	}
	if viaNext.EdgesRead() != viaBatch.EdgesRead() {
		t.Errorf("edges read: %d via Next, %d via NextBatch", viaNext.EdgesRead(), viaBatch.EdgesRead())
	}
	if viaBatch.EdgesRead() != int64(2*len(edges)) {
		t.Errorf("edges read = %d, want %d", viaBatch.EdgesRead(), 2*len(edges))
	}
}

// TestFileStreamBatchSurfacesErrors checks that a malformed line mid-file
// first yields the preceding edges, then the error on the next call.
func TestFileStreamBatchSurfacesErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\nnot-an-edge\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := OpenFile(path)
	if err := fs.Reset(); err != nil {
		t.Fatal(err)
	}
	batch, err := fs.NextBatch(nil)
	if err != nil {
		t.Fatalf("first batch should deliver the good edges, got error %v", err)
	}
	if len(batch) != 2 {
		t.Fatalf("first batch has %d edges, want 2", len(batch))
	}
	if _, err := fs.NextBatch(nil); err == nil {
		t.Fatal("expected the parse error on the second call")
	}
}

// TestForEachBatch checks the batched pass helper, including early stop on a
// callback error.
func TestForEachBatch(t *testing.T) {
	edges := testEdges(20)
	n, err := ForEachBatch(FromEdges(edges), func(batch []graph.Edge) error {
		return nil
	})
	if err != nil || n != len(edges) {
		t.Fatalf("ForEachBatch = %d, %v", n, err)
	}
}
