package stream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"degentri/internal/graph"
)

const (
	// fileBufSize is the read buffer of the text parser. A wide buffer keeps
	// the parse loop in large sequential reads; the old 64 KiB scanner buffer
	// left FileStream an order of magnitude behind the in-memory path.
	fileBufSize = 1 << 20
	// fileIndexGranularity is the spacing of the shard index: during a full
	// pass the stream records the byte offset (and line number) of every
	// 1024th edge, which lets RangeStream seek near any position and skip at
	// most 1023 edges while keeping diagnostics in real file coordinates. The
	// index costs 12 bytes per 1024 edges (≈1.2 MB per 10⁸ edges).
	fileIndexGranularity = 1024
	// maxLineBytes bounds a single input line. A newline-free multi-gigabyte
	// file (binary data, one-line JSON) fails with a clean error instead of
	// doubling the read buffer until the process dies.
	maxLineBytes = 16 << 20
)

// errLineTooLong is wrapped with the file path by the stream that hits it.
var errLineTooLong = errors.New("line longer than 16 MiB (not an edge list?)")

// Opener opens the underlying byte source of a file-backed pass. The default
// is os.Open; tests and internal/faultio substitute one that wraps the handle
// to inject read faults *below* the stream parser (short reads, transient
// errors), which is how the short-read guard is exercised.
type Opener func(path string) (io.ReadSeekCloser, error)

func defaultOpener(path string) (io.ReadSeekCloser, error) { return os.Open(path) }

// lineReader yields newline-delimited lines straight out of a wide buffer,
// tracking the absolute file offset of each line start (the raw material of
// the shard index). Unlike bufio.Scanner it exposes those offsets and grows
// its buffer in place for over-long lines.
type lineReader struct {
	file io.Reader
	buf  []byte
	r, w int
	abs  int64 // file offset of buf[r]
	eof  bool
}

func (lr *lineReader) init(file io.Reader, off int64, buf []byte) {
	if buf == nil {
		buf = make([]byte, fileBufSize)
	}
	*lr = lineReader{file: file, buf: buf, abs: off}
}

// next returns the next line (without its newline), the file offset of its
// first byte, and ok=false at end of input.
func (lr *lineReader) next() (line []byte, start int64, ok bool, err error) {
	for {
		if i := bytes.IndexByte(lr.buf[lr.r:lr.w], '\n'); i >= 0 {
			line = lr.buf[lr.r : lr.r+i]
			start = lr.abs
			lr.r += i + 1
			lr.abs += int64(i) + 1
			return line, start, true, nil
		}
		if lr.eof {
			if lr.r == lr.w {
				return nil, 0, false, nil
			}
			line = lr.buf[lr.r:lr.w] // final line without trailing newline
			start = lr.abs
			lr.abs += int64(lr.w - lr.r)
			lr.r = lr.w
			return line, start, true, nil
		}
		if lr.r > 0 {
			copy(lr.buf, lr.buf[lr.r:lr.w])
			lr.w -= lr.r
			lr.r = 0
		}
		if lr.w == len(lr.buf) {
			if len(lr.buf) >= maxLineBytes {
				return nil, 0, false, errLineTooLong
			}
			grown := make([]byte, 2*len(lr.buf))
			copy(grown, lr.buf[:lr.w])
			lr.buf = grown
		}
		n, rerr := lr.file.Read(lr.buf[lr.w:])
		lr.w += n
		if rerr == io.EOF {
			lr.eof = true
		} else if rerr != nil {
			return nil, 0, false, rerr
		}
	}
}

// FileStream streams edges from a whitespace-separated edge-list text file:
// one edge per line, "u v", with '#' or '%' prefixed lines treated as
// comments. The file is rewound on every Reset, so a FileStream uses O(1)
// memory (plus the shard index) regardless of graph size. Lines are parsed
// byte-by-byte out of a wide read buffer without per-line allocations.
//
// The first pass that runs to completion additionally records a sparse
// position→byte-offset index, after which the stream supports RangeStream
// and sharded passes can read it with concurrent workers (each range opens
// its own file handle).
type FileStream struct {
	path    string
	open    Opener
	file    io.ReadSeekCloser
	lr      lineReader
	active  bool
	line    int
	pos     int // edges delivered in the current pass
	m       int
	mKnown  bool
	batch   []graph.Edge // scratch for NextBatch(nil)
	pending error        // parse/read error to surface after a partial batch

	index      []int64 // byte offset of the line of every fileIndexGranularity-th edge
	indexLines []int32 // 1-based line number of each index entry
	indexDone  bool
	indexing   bool // current pass is recording the index
	broken     bool // current pass hit a parse/read error; don't trust pos at EOF

	size int64 // file size stat'ed at open (-1 if not a regular file)
}

// OpenFile returns a FileStream over the given edge-list file. The file is
// not opened until the first Reset.
func OpenFile(path string) *FileStream {
	return &FileStream{path: path, open: defaultOpener}
}

// OpenFileWith is OpenFile with a custom Opener for the underlying byte
// source (every handle the stream and its range sub-streams open goes through
// it). It exists for fault injection below the parser; production callers use
// OpenFile.
func OpenFileWith(path string, open Opener) *FileStream {
	if open == nil {
		open = defaultOpener
	}
	return &FileStream{path: path, open: open}
}

// Backend implements Backender.
func (f *FileStream) Backend() string { return BackendText }

// Reset implements Stream by rewinding (or opening) the file.
func (f *FileStream) Reset() error {
	if f.file == nil {
		file, err := f.open(f.path)
		if err != nil {
			return fmt.Errorf("stream: open %s: %w", f.path, err)
		}
		f.file = file
		f.size = -1
		if info, err := os.Stat(f.path); err == nil && info.Mode().IsRegular() {
			f.size = info.Size()
		}
	} else if _, err := f.file.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("stream: rewind %s: %w", f.path, err)
	}
	f.lr.init(f.file, 0, f.lr.buf)
	f.active = true
	f.line = 0
	f.pos = 0
	f.pending = nil
	f.broken = false
	f.indexing = !f.indexDone
	if f.indexing {
		f.index = f.index[:0]
		f.indexLines = f.indexLines[:0]
	}
	return nil
}

// abortPass marks the current pass unusable for length discovery and
// indexing (a parse or read error occurred).
func (f *FileStream) abortPass() {
	f.indexing = false
	f.broken = true
}

// deliver records index/position bookkeeping for one decoded edge.
func (f *FileStream) deliver(start int64) {
	if f.indexing && f.pos%fileIndexGranularity == 0 {
		f.index = append(f.index, start)
		f.indexLines = append(f.indexLines, int32(f.line))
	}
	f.pos++
}

// endOfPass finalizes a cleanly completed pass: the stream length is now
// known and the shard index is complete. A pass that saw EOF before
// consuming the bytes the open-time stat promised is NOT clean — a short
// read below the parser (an injected fault, a file shrunk after open) looks
// like a normal EOF up here. Trusting it would record a wrong m and install
// a partial position→offset index, so every later sharded pass would seek
// through it. Such a pass returns an error (transient: a re-run through a
// healed reader sees the whole file) and discards its index instead.
func (f *FileStream) endOfPass() error {
	if f.broken {
		return nil
	}
	if f.size >= 0 && f.lr.abs != f.size {
		f.abortPass()
		if f.indexing {
			// Discard the partial index of this aborted build. A previously
			// *completed* index (indexDone) is kept: it describes the file the
			// open-time stat promised, and clearing it while indexDone stays
			// true would hand RangeStream an empty index to seek through.
			f.index = f.index[:0]
			f.indexLines = f.indexLines[:0]
		}
		return MarkTransient(fmt.Errorf("stream: %s: pass consumed %d of %d bytes: %w",
			f.path, f.lr.abs, f.size, ErrTruncated))
	}
	f.m = f.pos
	f.mKnown = true
	if f.indexing {
		f.indexing = false
		f.indexDone = true
	}
	return nil
}

// Next implements Stream.
func (f *FileStream) Next() (graph.Edge, error) {
	if !f.active {
		return graph.Edge{}, ErrNoPass
	}
	if err := f.pending; err != nil {
		f.pending = nil
		return graph.Edge{}, err
	}
	for {
		line, start, ok, err := f.lr.next()
		if err != nil {
			f.abortPass()
			return graph.Edge{}, fmt.Errorf("stream: reading %s: %w", f.path, err)
		}
		if !ok {
			if eerr := f.endOfPass(); eerr != nil {
				return graph.Edge{}, eerr
			}
			return graph.Edge{}, ErrEndOfPass
		}
		f.line++
		e, isEdge, perr := parseEdgeLine(f.path, f.line, line)
		if perr != nil {
			f.abortPass()
			return graph.Edge{}, perr
		}
		if isEdge {
			f.deliver(start)
			return e, nil
		}
	}
}

// NextBatch implements Stream, filling buf (or an internal scratch buffer of
// DefaultBatchSize edges when buf is empty). A parse or read error that
// occurs after at least one edge was decoded is delivered on the next call,
// so no edges are lost.
func (f *FileStream) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	if !f.active {
		return nil, ErrNoPass
	}
	if err := f.pending; err != nil {
		f.pending = nil
		return nil, err
	}
	if len(buf) == 0 {
		if f.batch == nil {
			f.batch = make([]graph.Edge, DefaultBatchSize)
		}
		buf = f.batch
	}
	n := 0
	for n < len(buf) {
		line, start, ok, err := f.lr.next()
		if err != nil {
			f.abortPass()
			err = fmt.Errorf("stream: reading %s: %w", f.path, err)
			if n == 0 {
				return nil, err
			}
			f.pending = err
			return buf[:n], nil
		}
		if !ok {
			if eerr := f.endOfPass(); eerr != nil {
				if n == 0 {
					return nil, eerr
				}
				f.pending = eerr
				return buf[:n], nil
			}
			if n == 0 {
				return nil, ErrEndOfPass
			}
			return buf[:n], nil
		}
		f.line++
		e, isEdge, perr := parseEdgeLine(f.path, f.line, line)
		if perr != nil {
			f.abortPass()
			if n == 0 {
				return nil, perr
			}
			f.pending = perr
			return buf[:n], nil
		}
		if isEdge {
			f.deliver(start)
			buf[n] = e
			n++
		}
	}
	return buf[:n], nil
}

// parseEdgeLine decodes one edge-list line. It returns isEdge=false for blank
// and comment lines. The parse allocates nothing.
func parseEdgeLine(path string, lineNo int, line []byte) (graph.Edge, bool, error) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '#' || line[i] == '%' {
		return graph.Edge{}, false, nil
	}
	u, i, err := parseVertex(path, lineNo, line, i)
	if err != nil {
		return graph.Edge{}, false, err
	}
	i = skipSpace(line, i)
	if i == len(line) {
		return graph.Edge{}, false, fmt.Errorf("stream: %s:%d: malformed edge line %q", path, lineNo, line)
	}
	v, _, err := parseVertex(path, lineNo, line, i)
	if err != nil {
		return graph.Edge{}, false, err
	}
	if u < 0 || v < 0 {
		return graph.Edge{}, false, fmt.Errorf("stream: %s:%d: negative vertex id", path, lineNo)
	}
	return graph.Edge{U: u, V: v}, true, nil
}

// parseVertex decodes a decimal integer field starting at i, returning the
// value and the index one past the field.
func parseVertex(path string, lineNo int, line []byte, i int) (int, int, error) {
	start := i
	neg := false
	if i < len(line) && (line[i] == '-' || line[i] == '+') {
		neg = line[i] == '-'
		i++
	}
	val := 0
	digits := 0
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		val = val*10 + int(line[i]-'0')
		digits++
		i++
	}
	if digits == 0 || digits > 18 || (i < len(line) && !isSpace(line[i])) {
		end := i
		for end < len(line) && !isSpace(line[end]) {
			end++
		}
		return 0, i, fmt.Errorf("stream: %s:%d: bad vertex %q: invalid syntax", path, lineNo, line[start:end])
	}
	if neg {
		val = -val
	}
	return val, i, nil
}

func skipSpace(line []byte, i int) int {
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// Len implements Stream. The length is unknown until a full pass (or
// CountEdges) has been completed or SetLen called.
func (f *FileStream) Len() (int, bool) { return f.m, f.mKnown }

// SetLen records the number of edges after a counting pass so later callers
// see a known length.
func (f *FileStream) SetLen(m int) {
	f.m = m
	f.mKnown = true
}

// RangeStream implements RangeStreamer once this stream has completed an
// indexing pass: the sub-stream opens its own file handle, seeks to the
// indexed line nearest lo, skips forward, and delivers exactly hi-lo edges.
// Before any complete pass it reports ok=false and sharded passes fall back
// to one sequential scan (which itself builds the index).
func (f *FileStream) RangeStream(lo, hi int) (Stream, bool) {
	if !f.indexDone || lo < 0 || hi < lo || hi > f.m {
		return nil, false
	}
	if lo/fileIndexGranularity >= len(f.index) {
		// No index entry at or before lo: only an empty range at the end of
		// a file whose length is a multiple of the stride (or an empty
		// file). Sequential fallback, never a bad seek.
		return nil, false
	}
	return &fileRange{path: f.path, open: f.open, lo: lo, hi: hi, index: f.index, indexLines: f.indexLines}, true
}

// Close releases the underlying file handle. The stream can be Reset again
// afterwards (it will re-open the file); the shard index survives.
func (f *FileStream) Close() error {
	if f.file == nil {
		return nil
	}
	err := f.file.Close()
	f.file = nil
	f.active = false
	return err
}

// fileRange is an independent stream over edge positions [lo, hi) of an
// indexed edge-list file, with its own file handle and parse state.
type fileRange struct {
	path       string
	open       Opener
	lo, hi     int
	index      []int64
	indexLines []int32
	file       io.ReadSeekCloser
	lr         lineReader
	active     bool
	line       int
	remaining  int
	batch      []graph.Edge
	pending    error
}

// Reset implements Stream: seek to the indexed line at or before lo and
// discard edges until position lo.
func (r *fileRange) Reset() error {
	r.remaining = r.hi - r.lo
	r.active = true
	r.pending = nil
	r.line = 0
	if r.remaining == 0 {
		return nil
	}
	if r.file == nil {
		open := r.open
		if open == nil {
			open = defaultOpener
		}
		file, err := open(r.path)
		if err != nil {
			return fmt.Errorf("stream: open %s: %w", r.path, err)
		}
		r.file = file
	}
	slot := r.lo / fileIndexGranularity
	off := r.index[slot]
	if _, err := r.file.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("stream: seek %s: %w", r.path, err)
	}
	r.lr.init(r.file, off, r.lr.buf)
	// Resume line numbering from the indexed entry so parse errors report the
	// same file:line a sequential pass would.
	r.line = int(r.indexLines[slot]) - 1
	for skip := r.lo - slot*fileIndexGranularity; skip > 0; skip-- {
		if _, err := r.next(); err != nil {
			if err == ErrEndOfPass {
				return fmt.Errorf("stream: %s ended before position %d: %w", r.path, r.lo, ErrTruncated)
			}
			return err
		}
	}
	return nil
}

// next decodes the next edge of the underlying file regardless of the range
// budget (used both for skipping and for delivery).
func (r *fileRange) next() (graph.Edge, error) {
	for {
		line, _, ok, err := r.lr.next()
		if err != nil {
			return graph.Edge{}, fmt.Errorf("stream: reading %s: %w", r.path, err)
		}
		if !ok {
			return graph.Edge{}, ErrEndOfPass
		}
		r.line++
		e, isEdge, perr := parseEdgeLine(r.path, r.line, line)
		if perr != nil {
			return graph.Edge{}, perr
		}
		if isEdge {
			return e, nil
		}
	}
}

// Next implements Stream.
func (r *fileRange) Next() (graph.Edge, error) {
	if !r.active {
		return graph.Edge{}, ErrNoPass
	}
	if err := r.pending; err != nil {
		r.pending = nil
		return graph.Edge{}, err
	}
	if r.remaining <= 0 {
		return graph.Edge{}, ErrEndOfPass
	}
	e, err := r.next()
	if err == ErrEndOfPass {
		return graph.Edge{}, fmt.Errorf("stream: %s ended %d edges into range [%d,%d): %w",
			r.path, r.hi-r.lo-r.remaining, r.lo, r.hi, ErrTruncated)
	}
	if err != nil {
		return graph.Edge{}, err
	}
	r.remaining--
	return e, nil
}

// NextBatch implements Stream.
func (r *fileRange) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	if !r.active {
		return nil, ErrNoPass
	}
	if err := r.pending; err != nil {
		r.pending = nil
		return nil, err
	}
	if r.remaining <= 0 {
		return nil, ErrEndOfPass
	}
	if len(buf) == 0 {
		if r.batch == nil {
			r.batch = make([]graph.Edge, DefaultBatchSize)
		}
		buf = r.batch
	}
	// Inline decode loop (mirrors FileStream.NextBatch): this is the per-edge
	// hot path of every shard of a parallel text-file pass, so it should not
	// pay a call plus re-checked state per edge.
	n := 0
	for n < len(buf) && r.remaining > 0 {
		e, err := r.next()
		if err != nil {
			if err == ErrEndOfPass {
				err = fmt.Errorf("stream: %s ended %d edges into range [%d,%d): %w",
					r.path, r.hi-r.lo-r.remaining, r.lo, r.hi, ErrTruncated)
			}
			if n == 0 {
				return nil, err
			}
			r.pending = err
			return buf[:n], nil
		}
		r.remaining--
		buf[n] = e
		n++
	}
	return buf[:n], nil
}

// Len implements Stream.
func (r *fileRange) Len() (int, bool) { return r.hi - r.lo, true }

// Close releases the range's file handle.
func (r *fileRange) Close() error {
	if r.file == nil {
		return nil
	}
	err := r.file.Close()
	r.file = nil
	r.active = false
	return err
}

// WriteEdgeList writes the edges of a stream to w as a text edge list, one
// "u v" pair per line, returning the number of edges written.
func WriteEdgeList(w io.Writer, s Stream) (int, error) {
	bw := bufio.NewWriter(w)
	n, err := ForEach(s, func(e graph.Edge) error {
		_, werr := fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
		return werr
	})
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// WriteGraphFile writes a graph's edges to the given file path as an edge
// list with a small header comment.
func WriteGraphFile(path string, g *graph.Graph, comment string) error {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("stream: create %s: %w", path, err)
	}
	werr := writeGraph(file, g, comment)
	cerr := file.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// writeGraph writes WriteGraphFile's edge list to w.
func writeGraph(w io.Writer, g *graph.Graph, comment string) error {
	bw := bufio.NewWriter(w)
	if comment != "" {
		if _, err := fmt.Fprintf(bw, "# %s\n", comment); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "# n=%d m=%d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}
