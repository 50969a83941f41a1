package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"

	"degentri/internal/graph"
)

// The .bex binary edge format: a 16-byte header ("BEX1" magic, a reserved
// uint32, then the edge count as a length prefix) followed by count records
// of two little-endian int32 vertex IDs. Fixed-width records make the format
// both fast to parse (8 bytes per edge, no text scanning) and trivially
// random-accessible: edge i lives at byte 16+8i, so BexStream supports
// RangeStream natively and sharded passes read a .bex file with concurrent
// workers and zero skip cost. cmd/graphgen converts between text edge lists
// and .bex.
const (
	bexMagic      = "BEX1"
	bexHeaderSize = 16
	bexRecordSize = 8
	// BexExt is the file extension OpenAuto dispatches on.
	BexExt = ".bex"
	// bexBatchBytes is the read granularity of a BexStream pass: 32K edges
	// (256 KiB) per read keeps the decode loop hot without large buffers.
	bexBatchEdges = 32 * 1024
)

// WriteBex writes the stream to w in .bex format and returns the number of
// edges written. The stream length need not be known up front when w is
// seekable (the length prefix is patched afterwards); for non-seekable
// writers the stream must know its length.
func WriteBex(w io.Writer, s Stream) (int, error) {
	m, known := s.Len()
	seeker, seekable := w.(io.WriteSeeker)
	if !known && !seekable {
		return 0, fmt.Errorf("stream: .bex needs a known length or a seekable writer")
	}
	// Record where the header lands so the length prefix can be patched even
	// when the writer is not positioned at the start of its file (appending
	// a .bex section to a container file, for example). Patching at absolute
	// offset 0 would corrupt whatever the caller wrote before us.
	var base int64
	if seekable {
		off, err := seeker.Seek(0, io.SeekCurrent)
		if err != nil {
			if !known {
				return 0, fmt.Errorf("stream: .bex base offset: %w", err)
			}
			seekable = false
		} else {
			base = off
		}
	}
	header := make([]byte, bexHeaderSize)
	copy(header, bexMagic)
	binary.LittleEndian.PutUint64(header[8:], uint64(m))
	if _, err := w.Write(header); err != nil {
		return 0, err
	}
	buf := make([]byte, 0, bexRecordSize*4096)
	n, err := ForEachBatch(s, func(batch []graph.Edge) error {
		buf = buf[:0]
		for _, e := range batch {
			if e.U < 0 || e.V < 0 || e.U > 1<<31-1 || e.V > 1<<31-1 {
				return fmt.Errorf("stream: edge %v does not fit int32 .bex records", e)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
		}
		_, werr := w.Write(buf)
		return werr
	})
	if err != nil {
		return n, err
	}
	if n != m {
		if !seekable {
			return n, fmt.Errorf("stream: .bex length prefix %d but stream held %d edges", m, n)
		}
		if _, err := seeker.Seek(base, io.SeekStart); err != nil {
			return n, err
		}
		binary.LittleEndian.PutUint64(header[8:], uint64(n))
		if _, err := w.Write(header); err != nil {
			return n, err
		}
		// Reposition to the end of the records just written (not SeekEnd:
		// the caller's file may extend past our section).
		if _, err := seeker.Seek(base+bexHeaderSize+int64(n)*bexRecordSize, io.SeekStart); err != nil {
			return n, err
		}
	}
	return n, nil
}

// WriteBexFile writes the stream to a .bex file at path.
func WriteBexFile(path string, s Stream) (int, error) {
	file, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("stream: create %s: %w", path, err)
	}
	n, werr := WriteBex(file, s)
	cerr := file.Close()
	if werr != nil {
		return n, werr
	}
	return n, cerr
}

// BexStream streams edges from a .bex file. The edge count is known from the
// header without a pass, and contiguous position ranges are directly
// addressable. The whole file is its own range [0, m): BexStream is a
// bexRange that opened its handle eagerly and checked the header.
type BexStream struct {
	bexRange
}

// OpenBex opens a .bex file, validating the header eagerly (unlike OpenFile,
// a malformed file fails at open time): bad magic, an implausible count, or a
// file size that disagrees with the count (a truncated download, a lying
// header) are all reported here rather than as a mid-pass truncation error on
// edge k.
func OpenBex(path string) (*BexStream, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: open %s: %w", path, err)
	}
	m, err := readBexHeader(file, path)
	if err != nil {
		file.Close()
		return nil, err
	}
	if info, serr := file.Stat(); serr == nil && info.Mode().IsRegular() {
		want := int64(bexHeaderSize) + int64(m)*bexRecordSize
		if info.Size() != want {
			file.Close()
			return nil, fmt.Errorf("stream: %s: header declares %d edges (%d bytes) but the file holds %d bytes: %w",
				path, m, want, info.Size(), ErrCorruptHeader)
		}
	}
	return &BexStream{bexRange{path: path, file: file, hi: m}}, nil
}

func readBexHeader(file *os.File, path string) (int, error) {
	header := make([]byte, bexHeaderSize)
	if _, err := io.ReadFull(file, header); err != nil {
		return 0, fmt.Errorf("stream: %s: reading .bex header: %w (%w)", path, err, ErrCorruptHeader)
	}
	if string(header[:4]) != bexMagic {
		return 0, fmt.Errorf("stream: %s: not a .bex file (bad magic %q): %w", path, header[:4], ErrCorruptHeader)
	}
	count := binary.LittleEndian.Uint64(header[8:])
	if count > 1<<56 {
		return 0, fmt.Errorf("stream: %s: implausible .bex edge count %d: %w", path, count, ErrCorruptHeader)
	}
	return int(count), nil
}

func decodeBexRecord(rec []byte) graph.Edge {
	return graph.Edge{
		U: int(int32(binary.LittleEndian.Uint32(rec))),
		V: int(int32(binary.LittleEndian.Uint32(rec[4:]))),
	}
}

// RangeStream implements RangeStreamer with pure offset arithmetic.
func (b *BexStream) RangeStream(lo, hi int) (Stream, bool) {
	if lo < 0 || hi < lo || hi > b.hi {
		return nil, false
	}
	return &bexRange{path: b.path, lo: lo, hi: hi}, true
}

// bexRange is an independent stream over edge positions [lo, hi) of a .bex
// file with its own file handle.
type bexRange struct {
	path   string
	lo, hi int
	file   *os.File
	pos    int
	active bool
	raw    []byte
	batch  []graph.Edge
}

// Reset implements Stream.
func (r *bexRange) Reset() error {
	r.pos = r.lo
	r.active = true
	if r.lo == r.hi {
		return nil
	}
	if r.file == nil {
		file, err := os.Open(r.path)
		if err != nil {
			return fmt.Errorf("stream: open %s: %w", r.path, err)
		}
		r.file = file
	}
	if _, err := r.file.Seek(bexHeaderSize+int64(r.lo)*bexRecordSize, io.SeekStart); err != nil {
		return fmt.Errorf("stream: seek %s: %w", r.path, err)
	}
	return nil
}

// Next implements Stream.
func (r *bexRange) Next() (graph.Edge, error) { return nextEdge(r) }

// NextBatch implements Stream.
func (r *bexRange) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	if !r.active {
		return nil, ErrNoPass
	}
	if r.pos >= r.hi {
		return nil, ErrEndOfPass
	}
	want := r.hi - r.pos
	if len(buf) == 0 {
		if r.batch == nil {
			r.batch = make([]graph.Edge, bexBatchEdges)
		}
		buf = r.batch
	}
	if want > len(buf) {
		want = len(buf)
	}
	if cap(r.raw) < want*bexRecordSize {
		r.raw = make([]byte, want*bexRecordSize)
	}
	raw := r.raw[:want*bexRecordSize]
	if _, err := io.ReadFull(r.file, raw); err != nil {
		return nil, fmt.Errorf("stream: %s truncated at edge %d: %w (%w)", r.path, r.pos, err, ErrTruncated)
	}
	for i := 0; i < want; i++ {
		buf[i] = decodeBexRecord(raw[i*bexRecordSize:])
	}
	r.pos += want
	return buf[:want], nil
}

// Len implements Stream.
func (r *bexRange) Len() (int, bool) { return r.hi - r.lo, true }

// Close releases the range's file handle.
func (r *bexRange) Close() error {
	if r.file == nil {
		return nil
	}
	err := r.file.Close()
	r.file = nil
	r.active = false
	return err
}

// Backend implements Backender.
func (b *BexStream) Backend() string { return BackendBex1 }

// FileBacked is a file-backed edge stream that must eventually be closed.
type FileBacked interface {
	Stream
	Close() error
}

// OpenAuto opens an edge file as whatever format it actually is: a
// directory (or the .bexd extension) gets the sharded multi-file reader,
// files are sniffed by magic — "BEX1" gets the flat v1 reader, "BEX2" the
// block-indexed v2 reader — and anything else the text parser. Dispatch is
// by content first and extension second, so a v2 file named plain .bex and
// a v1 file written by an old tool both open correctly. The text path
// defers errors to the first Reset, matching OpenFile.
func OpenAuto(path string) (FileBacked, error) {
	return OpenAutoOpts(path, OpenOptions{})
}

// OpenOptions configure how OpenAutoOpts serves a file. The zero value is
// OpenAuto's behavior: no decoded-block cache.
type OpenOptions struct {
	// DecodeCache lets the v2-family readers serve repeat block reads from
	// the process-wide decoded-block cache (see SetDecodeCacheBudget):
	// multi-pass scans of the same file skip decode entirely after the
	// first pass. Results are bit-identical with the cache on or off.
	DecodeCache bool
}

// OpenAutoOpts is OpenAuto with explicit reader options.
func OpenAutoOpts(path string, o OpenOptions) (FileBacked, error) {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		return openBexdCache(path, o.DecodeCache)
	}
	if strings.HasSuffix(strings.ToLower(path), BexdExt) {
		return openBexdCache(path, o.DecodeCache)
	}
	switch sniffMagic(path) {
	case bexMagic:
		return OpenBex(path)
	case bex2Magic:
		return openBex2Cache(path, o.DecodeCache)
	}
	if strings.HasSuffix(strings.ToLower(path), BexExt) {
		// The .bex extension with an unrecognized magic: let OpenBex report
		// the corrupt-header diagnosis instead of parsing binary as text.
		return OpenBex(path)
	}
	return OpenFile(path), nil
}

// sniffMagic reads the first four bytes of path; it returns "" when the file
// cannot be read or is shorter than a magic (both are the text parser's
// problem to diagnose).
func sniffMagic(path string) string {
	file, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer file.Close()
	var magic [4]byte
	if _, err := io.ReadFull(file, magic[:]); err != nil {
		return ""
	}
	return string(magic[:])
}
