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
	// maxLineBytes bounds a single input line. A newline-free multi-gigabyte
	// file (binary data, one-line JSON) fails with a clean error instead of
	// doubling the read buffer until the process dies.
	maxLineBytes = 16 << 20
)

// errLineTooLong is wrapped with the file path by the stream that hits it.
var errLineTooLong = errors.New("line longer than 16 MiB (not an edge list?)")

// Opener opens the underlying byte source of a file-backed pass. The default
// is os.Open; tests substitute one that wraps the handle to inject read
// faults *below* the stream parser (short reads, transient errors), which is
// how the short-read guard is exercised.
type Opener func(path string) (io.ReadSeekCloser, error)

func defaultOpener(path string) (io.ReadSeekCloser, error) { return os.Open(path) }

// lineReader yields newline-delimited lines straight out of a wide buffer and
// counts the bytes it consumed (the raw material of the end-of-pass size
// check). Unlike bufio.Scanner it grows its buffer in place for over-long
// lines.
type lineReader struct {
	file io.Reader
	buf  []byte
	r, w int
	abs  int64 // bytes consumed up to buf[r]
	eof  bool
}

func (lr *lineReader) init(file io.Reader, buf []byte) {
	if buf == nil {
		buf = make([]byte, fileBufSize)
	}
	*lr = lineReader{file: file, buf: buf}
}

// next returns the next line (without its newline) and ok=false at end of
// input.
func (lr *lineReader) next() (line []byte, ok bool, err error) {
	for {
		if i := bytes.IndexByte(lr.buf[lr.r:lr.w], '\n'); i >= 0 {
			line = lr.buf[lr.r : lr.r+i]
			lr.r += i + 1
			lr.abs += int64(i) + 1
			return line, true, nil
		}
		if lr.eof {
			if lr.r == lr.w {
				return nil, false, nil
			}
			line = lr.buf[lr.r:lr.w] // final line without trailing newline
			lr.abs += int64(lr.w - lr.r)
			lr.r = lr.w
			return line, true, nil
		}
		if lr.r > 0 {
			copy(lr.buf, lr.buf[lr.r:lr.w])
			lr.w -= lr.r
			lr.r = 0
		}
		if lr.w == len(lr.buf) {
			if len(lr.buf) >= maxLineBytes {
				return nil, false, errLineTooLong
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
			return nil, false, rerr
		}
	}
}

// FileStream streams edges from a whitespace-separated edge-list text file:
// one edge per line, "u v", with '#' or '%' prefixed lines treated as
// comments. Lines are parsed byte-by-byte out of a wide read buffer without
// per-line allocations.
//
// The text is parsed once. While its first pass runs, the stream writes the
// delivered edges to a private .bex v2 copy in the temp directory
// (os.CreateTemp, so TMPDIR picks the place). Once that pass ends cleanly,
// every later pass and every RangeStream is served by the copy, for as long
// as the text's stat identity (path, size, mtime, and device and inode
// where the platform has them) matches the one taken at open; Close removes
// the copy. A pass that fails drops its partial copy and the next pass
// writes a new one. Without a copy — before a pass has completed, or when
// none can be written or the text changed — every pass re-parses the text
// and the stream offers no range access.
type FileStream struct {
	path    string
	open    Opener
	file    io.ReadSeekCloser
	ident   fileIdentity // the text's stat at open; size -1 if not a regular file
	lr      lineReader
	active  bool
	line    int
	pos     int // edges delivered in the current pass
	m       int
	mKnown  bool
	batch   []graph.Edge // scratch for NextBatch(nil)
	pending error        // parse/read error to surface after a partial batch
	broken  bool         // current pass hit a parse/read error; don't trust pos at EOF

	spill  *os.File    // the copy the current pass is writing, nil when none
	enc    bex2Encoder // encodes the current pass's edges into spill
	copy   *Bex2Stream // the finished copy, nil when none
	onCopy bool        // the current pass reads the copy
	noCopy bool        // no copy until Close: it could not be written, or the text changed
}

// OpenFile returns a FileStream over the given edge-list file. The file is
// not opened until the first Reset.
func OpenFile(path string) *FileStream {
	return &FileStream{path: path, open: defaultOpener}
}

// OpenFileWith is OpenFile with a custom Opener for the text (the copy is
// always read with os.Open). It exists for fault injection below the parser;
// production callers use OpenFile.
func OpenFileWith(path string, open Opener) *FileStream {
	if open == nil {
		open = defaultOpener
	}
	return &FileStream{path: path, open: open}
}

// Backend implements Backender.
func (f *FileStream) Backend() string { return BackendText }

// statIdentity is the stat identity of the text at path. A path that is not
// a regular file (or cannot be stat'ed) gets size -1, which turns off the
// end-of-pass size check.
func statIdentity(path string) fileIdentity {
	if info, err := os.Stat(path); err == nil && info.Mode().IsRegular() {
		return identityOf(path, info)
	}
	return fileIdentity{path: path, size: -1}
}

// unchanged reports whether the text still has its open-time stat identity.
func (f *FileStream) unchanged() bool { return statIdentity(f.path) == f.ident }

// Reset implements Stream. The pass reads the copy when there is one and
// the text is unchanged; otherwise it rewinds (or opens) the text, and the
// first such pass writes the copy.
func (f *FileStream) Reset() error {
	f.dropSpill() // left by a pass that was abandoned before its end
	f.onCopy = false
	if f.copy != nil {
		if f.unchanged() {
			f.onCopy = true
			return f.copy.Reset()
		}
		f.dropCopy()
		f.noCopy = true
	}
	if f.file == nil {
		file, err := f.open(f.path)
		if err != nil {
			return fmt.Errorf("stream: open %s: %w", f.path, err)
		}
		f.file = file
		f.ident = statIdentity(f.path)
	} else if _, err := f.file.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("stream: rewind %s: %w", f.path, err)
	}
	f.lr.init(f.file, f.lr.buf)
	f.active = true
	f.line = 0
	f.pos = 0
	f.pending = nil
	f.broken = false
	if !f.noCopy {
		f.startSpill()
	}
	return nil
}

// startSpill begins writing the copy. A temp file that cannot be created
// leaves the stream without a copy.
func (f *FileStream) startSpill() {
	spill, err := os.CreateTemp("", "degentri-text-*.bex")
	if err != nil {
		f.noCopy = true
		return
	}
	f.spill = spill
	f.enc = newBex2Encoder(spill, bex2HeaderSize, DefaultBlockEdges)
	// finishSpill patches the edge count once the pass has counted it.
	if _, err := spill.Write(bex2Header(DefaultBlockEdges, 0)); err != nil {
		f.failSpill()
	}
}

// finishSpill completes the copy after a clean pass: it writes the footer,
// patches the header's edge count, validates the container and installs it
// for later passes. A copy that fails any step is dropped.
func (f *FileStream) finishSpill() {
	if f.spill == nil {
		return
	}
	err := f.enc.finish()
	if err == nil {
		_, err = f.spill.WriteAt(bex2Header(DefaultBlockEdges, f.m), 0)
	}
	var meta *bex2Meta
	if err == nil {
		meta, err = readBex2Meta(f.spill, f.spill.Name())
	}
	if err != nil {
		f.failSpill()
		return
	}
	f.copy = newBex2Stream(meta, f.spill, false)
	f.spill, f.enc = nil, bex2Encoder{}
}

// dropSpill abandons the copy the current pass was writing, if any.
func (f *FileStream) dropSpill() {
	if f.spill != nil {
		removeTemp(f.spill)
		f.spill, f.enc = nil, bex2Encoder{}
	}
}

// failSpill drops a copy that could not be written (no temp directory, a
// full disk, a vertex ID the format cannot hold); passes re-parse the text
// until Close.
func (f *FileStream) failSpill() {
	f.dropSpill()
	f.noCopy = true
}

// dropCopy closes and removes the finished copy, if any.
func (f *FileStream) dropCopy() error {
	if f.copy == nil {
		return nil
	}
	err := f.copy.Close()
	os.Remove(f.copy.cur.file.path) // best effort, as in removeTemp
	f.copy = nil
	f.onCopy = false
	return err
}

// removeTemp closes and deletes a temp file; both are best effort.
func removeTemp(file *os.File) {
	file.Close()
	os.Remove(file.Name())
}

// abortPass marks the current pass unusable for length discovery and drops
// its copy (a parse or read error occurred, or the pass came up short).
func (f *FileStream) abortPass() {
	f.broken = true
	f.dropSpill()
}

// endOfPass finalizes a cleanly completed pass: the stream length is now
// known and the copy is complete. A pass that saw EOF before consuming the
// bytes the open-time stat promised is NOT clean — a short read below the
// parser (an injected fault, a file shrunk after open) looks like a normal
// EOF up here. Trusting it would record a wrong m and install a partial
// copy for every later pass to read. Such a pass returns an error
// (transient: a re-run through a healed reader sees the whole file) and
// drops its copy instead.
func (f *FileStream) endOfPass() error {
	if f.broken {
		return nil
	}
	if f.ident.size >= 0 && f.lr.abs != f.ident.size {
		f.abortPass()
		return MarkTransient(fmt.Errorf("stream: %s: pass consumed %d of %d bytes: %w",
			f.path, f.lr.abs, f.ident.size, ErrTruncated))
	}
	f.m = f.pos
	f.mKnown = true
	f.finishSpill()
	return nil
}

// Next implements Stream.
func (f *FileStream) Next() (graph.Edge, error) { return nextEdge(f) }

// NextBatch implements Stream, filling buf (or an internal scratch buffer of
// DefaultBatchSize edges when buf is empty). A parse or read error that
// occurs after at least one edge was decoded is delivered on the next call,
// so no edges are lost.
func (f *FileStream) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	if f.onCopy {
		return f.copy.NextBatch(buf)
	}
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
	eof := false
	var err error
	for n < len(buf) {
		line, ok, rerr := f.lr.next()
		if rerr != nil {
			f.abortPass()
			err = fmt.Errorf("stream: reading %s: %w", f.path, rerr)
			break
		}
		if !ok {
			eof = true
			break
		}
		f.line++
		e, isEdge, perr := parseEdgeLine(f.path, f.line, line)
		if perr != nil {
			f.abortPass()
			err = perr
			break
		}
		if isEdge {
			buf[n] = e
			n++
		}
	}
	f.pos += n
	// The batch reaches the copy before endOfPass completes it. An encoder
	// error drops the copy, never the pass.
	if f.spill != nil && n > 0 {
		if werr := f.enc.add(buf[:n]); werr != nil {
			f.failSpill()
		}
	}
	if eof {
		err = f.endOfPass()
		if err == nil && n == 0 {
			return nil, ErrEndOfPass
		}
	}
	if err != nil {
		if n == 0 {
			return nil, err
		}
		f.pending = err
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

// Len implements Stream. The length is unknown until a full pass has been
// completed.
func (f *FileStream) Len() (int, bool) { return f.m, f.mKnown }

// RangeStream implements RangeStreamer through the copy: ranges are
// available once a clean pass has written one and while the text is
// unchanged. Before that it reports ok=false and sharded passes fall back to
// one sequential scan (the first of which writes the copy).
func (f *FileStream) RangeStream(lo, hi int) (Stream, bool) {
	if f.copy == nil || !f.unchanged() {
		return nil, false
	}
	return f.copy.RangeStream(lo, hi)
}

// Close releases the text handle and removes the copy. The stream can be
// Reset again afterwards: it re-opens the text, and its next pass writes a
// new copy.
func (f *FileStream) Close() error {
	f.active = false
	f.noCopy = false
	f.dropSpill()
	err := f.dropCopy()
	if f.file != nil {
		if cerr := f.file.Close(); err == nil {
			err = cerr
		}
		f.file = nil
	}
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
// list with a small header comment. Like WriteBex2File it replaces path only
// once the whole file is written.
func WriteGraphFile(path string, g *graph.Graph, comment string) error {
	return replaceFile(path, func(w io.Writer) error { return writeGraph(w, g, comment) })
}

// replaceFile writes a file through write into path+".tmp" and renames it
// over path only once write and Close succeed; on failure it removes the
// temporary file. A failed write therefore leaves whatever was at path
// untouched, and a conversion may write over the file it is reading.
func replaceFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("stream: create %s: %w", path, err)
	}
	err = write(file)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
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
