package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"sort"
	"sync/atomic"
	"unsafe"

	"degentri/internal/graph"
	"degentri/internal/stream/gvdecode"
)

// The .bex v2 binary edge format: block-indexed, delta-compressed in
// group-varint form, seekable from byte zero.
//
// Layout:
//
//	header (24 bytes)
//	  [0:4]   magic "BEX2"
//	  [4:8]   uint32 target edges per block (the encoder's knob)
//	  [8:16]  uint64 edge count m
//	  [16:24] reserved (zero)
//	blocks
//	  each block encodes up to the target count of edges in group-varint
//	  form: a control region of 2 bits per value (four values per control
//	  byte; the stored pair of bits is the value's byte length minus one)
//	  followed by a data region holding every value's little-endian bytes
//	  back to back. The values are, in stream order, zigzag(u − prevU)
//	  and zigzag(v − prevV) per edge, with prevU = prevV = 0 at the block
//	  start, so each block decodes independently of every other (the
//	  property that makes block seeks free). Widths live apart from data
//	  so the decoder's position advance stays off its critical path: the
//	  control bytes are consumed at sequential indexes the CPU fetches
//	  far ahead, where LEB128-style varints chain every value's offset
//	  through the previous value's continuation bits.
//	footer index (32 bytes per block, directly after the last block)
//	  [0:8]   uint64 position of the block's first edge
//	  [8:16]  uint64 absolute byte offset of the block
//	  [16:20] uint32 edge count of the block
//	  [20:24] int32  minimum vertex ID in the block
//	  [24:28] int32  maximum vertex ID in the block
//	  [28:32] uint32 CRC-32C of the block's bytes
//	tail (last 32 bytes of the file)
//	  [0:8]   uint64 absolute byte offset of the footer index
//	  [8:12]  uint32 block count
//	  [12:16] uint32 CRC-32C of the footer index bytes
//	  [16:28] reserved (zero)
//	  [28:32] magic "2XEB"
//
// Edge i is not at a computable byte offset, but the footer index maps any
// position range to its covering blocks with a binary search, so
// RangeStream still seeks directly (to a block boundary, decoding at most
// one block of prefix), with no index to build and no first-scan special
// case. Text gets its ranges from this format too: FileStream writes a
// private v2 copy during its first pass and serves every later pass and
// range from it.
//
// Integrity: the tail magic, footer geometry (offset/count vs file size),
// and footer CRC are all validated at open — a truncated or resized file
// fails in OpenBex2, not on edge k of a pass. Block payloads carry their own
// CRC-32C, checked when the block is first read; a flipped bit inside a
// block surfaces as ErrCorruptBlock on the exact block, never as silently
// wrong edges.
const (
	bex2Magic      = "BEX2"
	bex2TailMagic  = "2XEB"
	bex2HeaderSize = 24
	bex2FooterRec  = 32
	bex2TailSize   = 32

	// DefaultBlockEdges is the default encoder block size: big enough that
	// per-block overhead (footer record, CRC, reset deltas) is noise, small
	// enough that a range seek decodes little prefix and a sliding-window
	// scan maps tightly onto blocks.
	DefaultBlockEdges = 8192

	// maxBex2BlockEdges bounds the block size a reader will allocate a
	// decode buffer for (a lying footer cannot make us allocate gigabytes).
	maxBex2BlockEdges = 1 << 24
)

// crcTable is CRC-32C (Castagnoli): hardware-accelerated on amd64/arm64, so
// block verification costs a fraction of the decode itself.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zigzag encodes a signed delta as an unsigned payload value.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// bex2GVLen[c] is the total data-byte length of control byte c's four values.
var bex2GVLen = func() (t [256]uint8) {
	for c := range t {
		t[c] = uint8(c&3 + c>>2&3 + c>>4&3 + c>>6&3 + 4)
	}
	return
}()

// bex2GVMask[w] keeps the low w+1 bytes of an unaligned 32-bit load.
var bex2GVMask = [4]uint64{0xff, 0xffff, 0xffffff, 0xffffffff}

// bex2CtrlLen is the control-region byte length of a count-edge block.
func bex2CtrlLen(count int) int { return (2*count + 3) / 4 }

// simdDecode gates the vectorized block-decode kernel (internal/stream/
// gvdecode). On wherever the CPU has the kernel; SetSIMDDecode(false) is
// the test hook that pins the scalar kernel. Atomic because tests flip it
// per case while other streams may be decoding.
var simdDecode atomic.Bool

func init() { simdDecode.Store(gvdecode.Available()) }

// SetSIMDDecode enables or disables the vectorized .bex v2 block decoder.
// Enabling is a no-op on CPUs without the kernel; the scalar decoder is
// always the fallback and the two produce bit-identical edges and errors.
func SetSIMDDecode(enable bool) { simdDecode.Store(enable && gvdecode.Available()) }

// SIMDDecodeEnabled reports whether the vectorized block decoder is active.
func SIMDDecodeEnabled() bool { return simdDecode.Load() }

// DecodeKernelName names the active .bex v2 block-decode kernel ("ssse3" or
// "scalar") for status lines and diagnostics.
func DecodeKernelName() string {
	if simdDecode.Load() {
		return "ssse3"
	}
	return "scalar"
}

// bex2Block is one decoded footer record.
type bex2Block struct {
	firstPos int   // stream position of the block's first edge
	off      int64 // absolute byte offset of the block
	length   int   // byte length of the block (derived from neighbors)
	count    int   // edges in the block
	crc      uint32
}

// bex2Meta is everything a reader needs besides the bytes: the validated
// footer index plus the header facts. Metas are immutable after open
// (verified is monotonic) and shared by every range sub-stream of a file.
type bex2Meta struct {
	path       string
	m          int
	n          int // 1 + the largest vertex ID the footer records name
	blockEdges int
	blocks     []bex2Block
	// ident is the file's stat identity at open and keys this file's blocks
	// in the decoded-block cache. A rewritten or renamed-over file gets a
	// new identity, so its old decoded blocks become unreachable rather
	// than stale; a reopen must find the same identity.
	ident fileIdentity
	// verified[k] records that block k's payload CRC has been checked since
	// open. A block is verified the first time any cursor reads it and never
	// re-hashed on later passes — multi-pass algorithms (the whole point of
	// the system) pay for integrity once per open, not once per pass. A
	// racing double-verify is harmless; a missed flag just re-verifies.
	verified []atomic.Bool
}

// findBlock returns the index of the block containing position pos.
func (mt *bex2Meta) findBlock(pos int) int {
	return sort.Search(len(mt.blocks), func(i int) bool {
		b := mt.blocks[i]
		return b.firstPos+b.count > pos
	})
}

// WriteBex2 writes the stream to w in .bex v2 format with the given target
// block size (<= 0 selects DefaultBlockEdges) and returns the number of
// edges written. The stream length must be known up front unless w is
// seekable (the header's count is patched afterwards).
func WriteBex2(w io.Writer, s Stream, blockEdges int) (int, error) {
	if blockEdges <= 0 {
		blockEdges = DefaultBlockEdges
	}
	if blockEdges > maxBex2BlockEdges {
		blockEdges = maxBex2BlockEdges
	}
	m, known := s.Len()
	seeker, seekable := w.(io.WriteSeeker)
	if !known && !seekable {
		return 0, fmt.Errorf("stream: .bex needs a known length or a seekable writer")
	}
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
	if _, err := w.Write(bex2Header(blockEdges, m)); err != nil {
		return 0, err
	}

	enc := newBex2Encoder(w, base+bex2HeaderSize, blockEdges)
	n, err := ForEachBatch(s, enc.add)
	if err != nil {
		return n, err
	}
	if err := enc.finish(); err != nil {
		return n, err
	}
	if n != m {
		if !seekable {
			return n, fmt.Errorf("stream: .bex length prefix %d but stream held %d edges", m, n)
		}
		if _, err := seeker.Seek(base, io.SeekStart); err != nil {
			return n, err
		}
		if _, err := w.Write(bex2Header(blockEdges, n)); err != nil {
			return n, err
		}
		if _, err := seeker.Seek(enc.off+int64(len(enc.footer))+bex2TailSize, io.SeekStart); err != nil {
			return n, err
		}
	}
	return n, nil
}

// bex2Header returns the container header for m edges in blocks of
// blockEdges.
func bex2Header(blockEdges, m int) []byte {
	header := make([]byte, bex2HeaderSize)
	copy(header, bex2Magic)
	binary.LittleEndian.PutUint32(header[4:], uint32(blockEdges))
	binary.LittleEndian.PutUint64(header[8:], uint64(m))
	return header
}

// bex2Encoder buffers edges into blocks and writes each full block followed,
// at finish, by the footer index and tail.
type bex2Encoder struct {
	w          io.Writer
	off        int64 // absolute byte offset of the next block
	blockEdges int
	pend       []graph.Edge
	pos        int // stream position of pend[0]
	buf        []byte
	footer     []byte
}

// newBex2Encoder returns an encoder whose first block lands at byte off of w
// (just past a header written by the caller).
func newBex2Encoder(w io.Writer, off int64, blockEdges int) bex2Encoder {
	return bex2Encoder{w: w, off: off, blockEdges: blockEdges, pend: make([]graph.Edge, 0, blockEdges)}
}

func (e *bex2Encoder) add(batch []graph.Edge) error {
	for len(batch) > 0 {
		take := e.blockEdges - len(e.pend)
		if take > len(batch) {
			take = len(batch)
		}
		e.pend = append(e.pend, batch[:take]...)
		batch = batch[take:]
		if len(e.pend) == e.blockEdges {
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush encodes and writes the pending block and appends its footer record.
func (e *bex2Encoder) flush() error {
	if len(e.pend) == 0 {
		return nil
	}
	nctrl := bex2CtrlLen(len(e.pend))
	if cap(e.buf) < nctrl {
		e.buf = make([]byte, nctrl, nctrl+8*len(e.pend))
	}
	e.buf = e.buf[:nctrl]
	for i := range e.buf {
		e.buf[i] = 0
	}
	var prevU, prevV int64
	minV, maxV := int32(1<<31-1), int32(-1<<31)
	j := 0
	for _, ed := range e.pend {
		if ed.U < 0 || ed.V < 0 {
			return fmt.Errorf("stream: edge %v has a negative vertex id: %w", ed, ErrMalformed)
		}
		u, v := int64(ed.U), int64(ed.V)
		for _, z := range [2]uint64{zigzag(u - prevU), zigzag(v - prevV)} {
			l := 1
			switch {
			case z > 0xffffff:
				l = 4
			case z > 0xffff:
				l = 3
			case z > 0xff:
				l = 2
			}
			e.buf[j>>2] |= byte(l-1) << ((j & 3) * 2)
			var le [4]byte
			binary.LittleEndian.PutUint32(le[:], uint32(z))
			e.buf = append(e.buf, le[:l]...)
			j++
		}
		prevU, prevV = u, v
		lo, hi := ed.U, ed.V
		if hi < lo {
			lo, hi = hi, lo
		}
		if lo < minV {
			minV = lo
		}
		if hi > maxV {
			maxV = hi
		}
	}
	if _, err := e.w.Write(e.buf); err != nil {
		return err
	}
	var rec [bex2FooterRec]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(e.pos))
	binary.LittleEndian.PutUint64(rec[8:], uint64(e.off))
	binary.LittleEndian.PutUint32(rec[16:], uint32(len(e.pend)))
	binary.LittleEndian.PutUint32(rec[20:], uint32(minV))
	binary.LittleEndian.PutUint32(rec[24:], uint32(maxV))
	binary.LittleEndian.PutUint32(rec[28:], crc32.Checksum(e.buf, crcTable))
	e.footer = append(e.footer, rec[:]...)
	e.pos += len(e.pend)
	e.off += int64(len(e.buf))
	e.pend = e.pend[:0]
	return nil
}

// finish flushes the final partial block and writes the footer index + tail.
func (e *bex2Encoder) finish() error {
	if err := e.flush(); err != nil {
		return err
	}
	if _, err := e.w.Write(e.footer); err != nil {
		return err
	}
	var tail [bex2TailSize]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(e.off))
	binary.LittleEndian.PutUint32(tail[8:], uint32(len(e.footer)/bex2FooterRec))
	binary.LittleEndian.PutUint32(tail[12:], crc32.Checksum(e.footer, crcTable))
	copy(tail[28:], bex2TailMagic)
	_, err := e.w.Write(tail[:])
	return err
}

// WriteBex2File writes the stream to a .bex v2 file at path. The file is
// written to path+".tmp" and renamed over path only once it is complete, so
// a failed write leaves path as it was, and s may be reading path itself.
func WriteBex2File(path string, s Stream, blockEdges int) (int, error) {
	var n int
	err := replaceFile(path, func(w io.Writer) (err error) {
		n, err = WriteBex2(w, s, blockEdges)
		return err
	})
	return n, err
}

// readBex2Meta opens and fully validates the container geometry: header and
// tail magic, footer offset/count against the file size, the footer index's
// own CRC, and the block chain (positions and offsets strictly increasing,
// contiguous, counts summing to the header's m). Everything that can be
// checked without reading edge data fails here, at open; per-block payload
// CRCs are verified when each block is read.
func readBex2Meta(file *os.File, path string) (*bex2Meta, error) {
	info, err := file.Stat()
	if err != nil {
		return nil, fmt.Errorf("stream: stat %s: %w", path, err)
	}
	if !info.Mode().IsRegular() {
		return nil, fmt.Errorf("stream: %s: .bex v2 requires a regular file: %w", path, ErrCorruptHeader)
	}
	size := info.Size()
	if size < bex2HeaderSize+bex2TailSize {
		return nil, fmt.Errorf("stream: %s: file too short for a .bex v2 container (%d bytes): %w",
			path, size, ErrCorruptHeader)
	}
	header := make([]byte, bex2HeaderSize)
	if _, err := file.ReadAt(header, 0); err != nil {
		return nil, fmt.Errorf("stream: %s: reading .bex header: %w (%w)", path, err, ErrCorruptHeader)
	}
	if string(header[:4]) != bex2Magic {
		return nil, fmt.Errorf("stream: %s: not a .bex v2 file (bad magic %q): %w", path, header[:4], ErrCorruptHeader)
	}
	blockEdges := int(binary.LittleEndian.Uint32(header[4:]))
	m64 := binary.LittleEndian.Uint64(header[8:])
	if m64 > 1<<56 {
		return nil, fmt.Errorf("stream: %s: implausible .bex edge count %d: %w", path, m64, ErrCorruptHeader)
	}
	m := int(m64)
	if blockEdges <= 0 || blockEdges > maxBex2BlockEdges {
		return nil, fmt.Errorf("stream: %s: implausible .bex v2 block size %d: %w", path, blockEdges, ErrCorruptHeader)
	}

	tail := make([]byte, bex2TailSize)
	if _, err := file.ReadAt(tail, size-bex2TailSize); err != nil {
		return nil, fmt.Errorf("stream: %s: reading .bex v2 tail: %w (%w)", path, err, ErrCorruptHeader)
	}
	if string(tail[28:32]) != bex2TailMagic {
		return nil, fmt.Errorf("stream: %s: truncated .bex v2 file (missing tail magic): %w", path, ErrTruncated)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[0:]))
	blockCount := int(binary.LittleEndian.Uint32(tail[8:]))
	footerCRC := binary.LittleEndian.Uint32(tail[12:])
	footerLen := int64(blockCount) * bex2FooterRec
	if footerOff < bex2HeaderSize || footerOff+footerLen+bex2TailSize != size {
		return nil, fmt.Errorf("stream: %s: .bex v2 tail declares %d blocks at offset %d but the file holds %d bytes: %w",
			path, blockCount, footerOff, size, ErrCorruptHeader)
	}
	footer := make([]byte, footerLen)
	if _, err := file.ReadAt(footer, footerOff); err != nil {
		return nil, fmt.Errorf("stream: %s: reading .bex v2 footer index: %w (%w)", path, err, ErrTruncated)
	}
	if got := crc32.Checksum(footer, crcTable); got != footerCRC {
		return nil, fmt.Errorf("stream: %s: .bex v2 footer index checksum mismatch (got %08x, want %08x): %w",
			path, got, footerCRC, ErrCorruptHeader)
	}

	blocks := make([]bex2Block, blockCount)
	pos := 0
	off := int64(bex2HeaderSize)
	top := int32(-1) // the largest of the records' maximum IDs
	for i := range blocks {
		rec := footer[i*bex2FooterRec:]
		b := bex2Block{
			firstPos: int(binary.LittleEndian.Uint64(rec[0:])),
			off:      int64(binary.LittleEndian.Uint64(rec[8:])),
			count:    int(binary.LittleEndian.Uint32(rec[16:])),
			crc:      binary.LittleEndian.Uint32(rec[28:]),
		}
		top = max(top, int32(binary.LittleEndian.Uint32(rec[24:])))
		if b.firstPos != pos || b.off != off || b.count <= 0 || b.count > blockEdges {
			return nil, fmt.Errorf("stream: %s: .bex v2 footer record %d is inconsistent (pos %d@%d count %d): %w",
				path, i, b.firstPos, b.off, b.count, ErrCorruptHeader)
		}
		end := footerOff
		if i+1 < blockCount {
			end = int64(binary.LittleEndian.Uint64(footer[(i+1)*bex2FooterRec+8:]))
		}
		b.length = int(end - b.off)
		// A block is its control region plus one to four data bytes per
		// value; a length outside that envelope cannot decode to the
		// declared count.
		if nc := bex2CtrlLen(b.count); b.length < nc+2*b.count || b.length > nc+8*b.count {
			return nil, fmt.Errorf("stream: %s: .bex v2 block %d length %d disagrees with its %d edges: %w",
				path, i, b.length, b.count, ErrCorruptHeader)
		}
		pos += b.count
		off = b.off + int64(b.length)
		blocks[i] = b
	}
	if pos != m {
		return nil, fmt.Errorf("stream: %s: .bex v2 footer holds %d edges but the header declares %d: %w",
			path, pos, m, ErrCorruptHeader)
	}
	if off != footerOff {
		return nil, fmt.Errorf("stream: %s: .bex v2 blocks end at %d but the footer starts at %d: %w",
			path, off, footerOff, ErrCorruptHeader)
	}
	return &bex2Meta{
		path: path, m: m, n: int(top) + 1, blockEdges: blockEdges, blocks: blocks,
		ident:    identityOf(path, info),
		verified: make([]atomic.Bool, blockCount),
	}, nil
}

// decodeBex2Block decodes one block's raw bytes into dst (which must hold
// count edges), verifying the footer CRC first when checkCRC is set. The
// group-varint loop is the format's hot path: four values (two edges) per
// control byte, each value one unaligned 32-bit load cut to its width by a
// mask — no continuation-bit scanning, and the data cursor's advance is a
// one-byte table lookup at a sequential index, so the loop-carried
// dependency is a single add rather than a chain through every value's
// width bits.
func decodeBex2Block(path string, idx int, b bex2Block, raw []byte, dst []graph.Edge, checkCRC bool) error {
	if checkCRC {
		if got := crc32.Checksum(raw, crcTable); got != b.crc {
			return fmt.Errorf("stream: %s: block %d checksum mismatch (got %08x, want %08x): %w",
				path, idx, got, b.crc, ErrCorruptBlock)
		}
	}
	nctrl := bex2CtrlLen(b.count)
	n := len(raw)
	// The control area must fit before any decode path reads it: a corrupt
	// footer can claim more edges than the block's bytes can control, and
	// both the tail's control reads and the kernel's ctrl slice index into
	// raw[:nctrl] unchecked past this point.
	if nctrl > n {
		return fmt.Errorf("stream: %s: block %d holds %d bytes, too few to control %d edges: %w",
			path, idx, n, b.count, ErrCorruptBlock)
	}
	var u, v int64
	var acc uint64
	j, p, k := 0, nctrl, 0
	if groups := b.count / 2; simdDecode.Load() && groups > 0 && n-nctrl >= 16 {
		// The vectorized kernel covers exactly the scalar main loop's range
		// (edge pairs while a full 16-byte load window remains) and decodes
		// straight into dst: graph.Edge is two int32s, the [2]int32 layout
		// the kernel stores. Its int32 lane arithmetic is exact for any
		// block whose values all lie in [0, 2³¹) — precisely the blocks the
		// scalar acc check below accepts — and any out-of-range value
		// surfaces as a sign-bit flag before wraparound can alias it back
		// into range (each delta's magnitude is under 2³¹, so a prefix
		// cannot skip over the flagged zone). No flag therefore means the
		// decode, the (u, v) carry, and the acc verdict so far are all
		// bit-identical to the scalar path's, and the scalar tail resumes
		// from the kernel's state; a flag discards the kernel's work
		// entirely and re-decodes from scratch below, making the scalar
		// path authoritative for the exact corrupt-block diagnosis.
		var st gvdecode.State
		pairs := unsafe.Slice((*[2]int32)(unsafe.Pointer(&dst[0])), b.count)
		gvdecode.Decode(raw[:nctrl], groups, raw[nctrl:], pairs, &st)
		if st.Flags == 0 {
			j = int(st.Done)
			k = 2 * j
			p = nctrl + int(st.Consumed)
			u, v = int64(st.U), int64(st.V)
		}
	}
	for k+2 <= b.count && p+16 <= n {
		c := raw[j]
		j++
		l0 := int(c & 3)
		l1 := int(c >> 2 & 3)
		l2 := int(c >> 4 & 3)
		// One re-slice stands in for the four loads' bounds checks: the
		// prover sees a 16-byte window and widths capped at 3 by the masks.
		win := raw[p : p+16 : p+16]
		d0 := uint64(binary.LittleEndian.Uint32(win)) & bex2GVMask[c&3]
		d1 := uint64(binary.LittleEndian.Uint32(win[l0+1:])) & bex2GVMask[c>>2&3]
		d2 := uint64(binary.LittleEndian.Uint32(win[l0+l1+2:])) & bex2GVMask[c>>4&3]
		d3 := uint64(binary.LittleEndian.Uint32(win[l0+l1+l2+3:])) & bex2GVMask[c>>6&3]
		p += int(bex2GVLen[c])
		u += int64(d0>>1) ^ -int64(d0&1)
		v += int64(d1>>1) ^ -int64(d1&1)
		acc |= uint64(u) | uint64(v)
		dst[k] = graph.Edge{U: int32(u), V: int32(v)}
		u += int64(d2>>1) ^ -int64(d2&1)
		v += int64(d3>>1) ^ -int64(d3&1)
		acc |= uint64(u) | uint64(v)
		dst[k+1] = graph.Edge{U: int32(u), V: int32(v)}
		k += 2
	}
	// Tail: one value at a time for the last edges, whose data bytes sit too
	// close to the block's end for whole-word loads (and an odd final edge).
	for k < b.count {
		var z [2]uint64
		for s := range z {
			q := 2*k + s
			l := int(raw[q>>2]>>((q&3)*2)&3) + 1
			if p+l > n {
				return fmt.Errorf("stream: %s: block %d decode overrun at edge %d: %w", path, idx, k, ErrCorruptBlock)
			}
			var x uint64
			for t := 0; t < l; t++ {
				x |= uint64(raw[p+t]) << (8 * t)
			}
			p += l
			z[s] = x
		}
		u += int64(z[0]>>1) ^ -int64(z[0]&1)
		v += int64(z[1]>>1) ^ -int64(z[1]&1)
		acc |= uint64(u) | uint64(v)
		dst[k] = graph.Edge{U: int32(u), V: int32(v)}
		k++
	}
	if p != n {
		return fmt.Errorf("stream: %s: block %d holds %d trailing bytes: %w", path, idx, n-p, ErrCorruptBlock)
	}
	// Range violations are impossible in well-formed files (the writer
	// refuses vertices outside int32), so the per-edge check is hoisted to
	// one accumulated test; the cold rescan pins the offending edge. dst
	// holds the values truncated to int32, yet the first out-of-range one
	// shows as negative: it follows an in-range value by a delta of
	// magnitude at most 2³¹, so it lies in [−2³¹, 2³²−2] and truncates to
	// itself or to itself − 2³².
	if acc > graph.MaxVertexID {
		for k, e := range dst[:b.count] {
			if e.U < 0 || e.V < 0 {
				return fmt.Errorf("stream: %s: block %d decodes out-of-range vertex at edge %d: %w", path, idx, k, ErrCorruptBlock)
			}
		}
	}
	return nil
}

// bex2ReadAhead is how far a cursor reads past a requested block in one
// positioned read (capped by the cursor's window): compressed blocks are
// small, so one syscall typically serves many consecutive blocks.
const bex2ReadAhead = 1 << 20

// bex2File is the reader state of one open .bex v2 file, shared by its
// Bex2Stream and every range sub-stream: the validated footer, the one
// handle every block is read through, and a pool of cursor buffers.
// Positioned reads share no file offset, so concurrent cursors never
// interfere. Reading through the handle rather than the path keeps every
// cursor on the file generation the footer was read from: a file renamed
// over the path is not seen until the stream is reopened, and then only as
// an error. Sub-streams reach the handle through this struct, so they see a
// reopening Reset and must not outlive the stream's Close.
type bex2File struct {
	*bex2Meta
	handle *os.File // nil from Close until the next Reset
	bufs   *ShardPool[*bex2Bufs]
}

// bex2Bufs is one cursor's buffer set: a read-ahead buffer and the decode
// target of uncached loads. A cursor borrows one from its file's pool at the
// first block it reads in a pass and hands it back at the pass's end, Reset
// or Close, so a sharded pass holds at most one set per busy worker.
type bex2Bufs struct {
	raw   []byte // the file's bytes from offset off
	off   int64
	edges []graph.Edge
}

// reopen opens the path again after Close. The footer read at open describes
// one file, so a path that now names another (renamed over, rewritten) fails
// rather than pairing this footer with other bytes. A rewrite in place that
// keeps size and mtime goes unseen, as it does for an open handle.
func (f *bex2File) reopen() error {
	handle, err := os.Open(f.path)
	if err != nil {
		return fmt.Errorf("stream: open %s: %w", f.path, err)
	}
	info, err := handle.Stat()
	if err != nil || identityOf(f.path, info) != f.ident {
		handle.Close()
		return fmt.Errorf("stream: %s is no longer the file opened as .bex v2: %w", f.path, ErrCorruptHeader)
	}
	f.handle = handle
	return nil
}

// bex2Cursor is the pass machinery of every v2 reader: a window [lo, hi) of
// stream positions served block by block through its file's handle. The
// full-file stream is the window [0, m); range sub-streams are smaller
// windows of the same file.
type bex2Cursor struct {
	file    *bex2File
	lo, hi  int
	end     int64 // file offset just past the window's last block
	pos     int   // next position to deliver
	blk     int   // block that decoded holds, -1 when none
	decoded []graph.Edge
	served  int // decoded[:served] already delivered
	active  bool
	// cache opts this cursor into the process-wide decoded-block cache:
	// loads first look the block up by (file identity, ordinal) and serve
	// hits zero-copy; misses decode into a fresh slice and insert it. Off,
	// every load decodes into the borrowed buffer set.
	cache  bool
	cached *blockCacheEntry // pinned entry decoded aliases, nil when none
	bufs   *bex2Bufs        // borrowed buffer set, nil when none
}

func newBex2Cursor(file *bex2File, lo, hi int, cache bool) bex2Cursor {
	c := bex2Cursor{file: file, lo: lo, hi: hi, blk: -1, cache: cache}
	if lo < hi {
		last := file.blocks[file.findBlock(hi-1)]
		c.end = last.off + int64(last.length)
	}
	return c
}

// release ends the cursor's hold on its current block: the cache pin drops
// and the buffer set goes back to the pool. A batch aliasing either is valid
// only until the next call on the stream, which is this one.
func (c *bex2Cursor) release() {
	decodeCache.release(c.cached)
	if c.bufs != nil {
		c.file.bufs.Put(c.bufs)
	}
	c.blk, c.decoded, c.served, c.cached, c.bufs = -1, nil, 0, nil, nil
}

func (c *bex2Cursor) reset() {
	c.release()
	c.pos = c.lo
	c.active = true
}

func (c *bex2Cursor) close() {
	c.release()
	c.active = false
}

// load decodes (or cache-fetches) the block containing c.pos and positions
// served at it. The cursor slices the decoded block by stream position the
// same way regardless of where the edges came from, so batch and shard
// boundaries — and downstream results at any worker count — are identical
// with the cache on or off.
func (c *bex2Cursor) load() error {
	k := c.file.findBlock(c.pos)
	b := c.file.blocks[k]
	key := blockCacheKey{file: c.file.ident, blk: k}
	var ent *blockCacheEntry
	if c.cache {
		ent, _ = decodeCache.get(key)
	}
	var dst []graph.Edge
	if ent == nil {
		var err error
		if dst, err = c.decode(k, b); err != nil {
			return err
		}
	}
	// The old pin drops before an insert, so the insert's eviction can take
	// the block this cursor just left.
	decodeCache.release(c.cached)
	if ent == nil && c.cache {
		// Insert only after the complete, verified decode above: an error,
		// cancellation, or injected fault returns before this line, so a
		// partially-decoded block is never visible to other cursors. A
		// racing insert yields the first cursor's identical entry.
		ent = decodeCache.put(key, dst)
	}
	if c.cached = ent; ent != nil {
		dst = ent.edges
	}
	c.decoded, c.blk, c.served = dst, k, c.pos-b.firstPos
	return nil
}

// decode reads block k through the file's handle and decodes it: into a
// fresh slice for the cache (entries are immutable and shared), otherwise
// into the borrowed buffer set. Sequential scans are served from the
// read-ahead buffer: one positioned read per bex2ReadAhead bytes, never past
// the window's end, so a small shard range costs a read of its own bytes,
// not a megabyte of its neighbors'.
func (c *bex2Cursor) decode(k int, b bex2Block) ([]graph.Edge, error) {
	if c.bufs == nil {
		c.bufs = c.file.bufs.Get()
	}
	buf := c.bufs
	end := b.off + int64(b.length)
	if b.off < buf.off || end > buf.off+int64(len(buf.raw)) {
		want := max(min(bex2ReadAhead, c.end-b.off), int64(b.length))
		if int64(cap(buf.raw)) < want {
			// A power-of-two capacity serves every later window of about
			// the same size, so shards of one pass do not regrow the set.
			buf.raw = make([]byte, 1<<bits.Len64(uint64(want-1)))
		}
		buf.raw, buf.off = buf.raw[:want], b.off
		if _, err := c.file.handle.ReadAt(buf.raw, b.off); err != nil {
			buf.raw = buf.raw[:0] // a failed read may have overwritten some of it
			return nil, fmt.Errorf("stream: %s truncated at block %d (edge %d): %w (%w)",
				c.file.path, k, b.firstPos, err, ErrTruncated)
		}
	}
	var dst []graph.Edge
	if c.cache {
		dst = make([]graph.Edge, b.count)
	} else {
		if cap(buf.edges) < b.count {
			buf.edges = make([]graph.Edge, b.count)
		}
		dst = buf.edges[:b.count]
	}
	raw := buf.raw[b.off-buf.off : end-buf.off]
	if err := decodeBex2Block(c.file.path, k, b, raw, dst, !c.file.verified[k].Load()); err != nil {
		return nil, err
	}
	c.file.verified[k].Store(true)
	return dst, nil
}

// nextBatch delivers the next run of decoded edges within the window:
// copied into buf when it is non-empty, else aliasing the decoded block.
func (c *bex2Cursor) nextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	if !c.active {
		return nil, ErrNoPass
	}
	if c.pos >= c.hi {
		// The pass is exhausted: release the final block now rather than at
		// reset/close, so range sub-streams that are drained but never
		// closed neither pin cache entries for the life of the parent nor
		// keep a buffer set from the next shard. Eviction only drops
		// residency, the GC owns the memory, so a chunk the caller still
		// aliases after an eviction stays valid.
		c.release()
		return nil, ErrEndOfPass
	}
	if c.blk < 0 || c.served >= len(c.decoded) {
		if err := c.load(); err != nil {
			return nil, err
		}
	}
	chunk := c.decoded[c.served:min(len(c.decoded), c.served+c.hi-c.pos)]
	if len(buf) > 0 {
		chunk = buf[:copy(buf, chunk)]
	}
	c.pos += len(chunk)
	c.served += len(chunk)
	return chunk, nil
}

// Bex2Stream streams edges from a .bex v2 file through buffered positioned
// reads. The edge count and the full block index are known from open, so
// RangeStream works from byte zero — there is no first-scan index build.
type Bex2Stream struct {
	cur bex2Cursor
}

// OpenBex2 opens a .bex v2 file, validating the container eagerly (see
// readBex2Meta): bad or missing magic, a truncated footer index, a block
// count that disagrees with the file size, or a footer checksum mismatch
// all fail here rather than mid-pass.
func OpenBex2(path string) (*Bex2Stream, error) {
	return openBex2Cache(path, false)
}

func openBex2Cache(path string, cache bool) (*Bex2Stream, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: open %s: %w", path, err)
	}
	meta, err := readBex2Meta(file, path)
	if err != nil {
		file.Close()
		return nil, err
	}
	return newBex2Stream(meta, file, cache), nil
}

func newBex2Stream(meta *bex2Meta, handle *os.File, cache bool) *Bex2Stream {
	file := &bex2File{bex2Meta: meta, handle: handle, bufs: NewShardPool(
		func() *bex2Bufs { return new(bex2Bufs) },
		func(b *bex2Bufs) { b.raw = b.raw[:0] })}
	return &Bex2Stream{cur: newBex2Cursor(file, 0, meta.m, cache)}
}

// Reset implements Stream. After Close it reopens the path, and fails with
// ErrCorruptHeader if the path no longer names the file opened.
func (b *Bex2Stream) Reset() error {
	if b.cur.file.handle == nil {
		if err := b.cur.file.reopen(); err != nil {
			return err
		}
	}
	b.cur.reset()
	return nil
}

// Next implements Stream.
func (b *Bex2Stream) Next() (graph.Edge, error) { return nextEdge(b) }

// NextBatch implements Stream. With an empty buf the batch aliases the
// decoded block buffer (valid until the next call), so a full pass costs one
// positioned read + decode per block and no extra copies.
func (b *Bex2Stream) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	return b.cur.nextBatch(buf)
}

// Len implements Stream; a .bex stream always knows its length.
func (b *Bex2Stream) Len() (int, bool) { return b.cur.file.m, true }

// Vertices implements VertexCounter from the footer, read at open: one more
// than the largest of the blocks' maximum vertex IDs. The footer is not
// checked against the decoded edges; a record that under-states its block's
// maximum is caught by the pass that indexes by the count
// (passes.CountDegreesMasked).
func (b *Bex2Stream) Vertices() (int, bool) { return b.cur.file.n, true }

// RangeStream implements RangeStreamer via the footer index: available from
// the moment the file is opened, before any pass. The sub-stream reads
// through this stream's handle and buffer pool, so it must be closed (or
// dropped) before this stream's Close.
func (b *Bex2Stream) RangeStream(lo, hi int) (Stream, bool) {
	if lo < 0 || hi < lo || hi > b.cur.file.m {
		return nil, false
	}
	return &bex2Range{cur: newBex2Cursor(b.cur.file, lo, hi, b.cur.cache)}, true
}

// Close releases the file handle; the stream can be Reset afterwards.
func (b *Bex2Stream) Close() error {
	b.cur.close()
	f := b.cur.file
	if f.handle == nil {
		return nil
	}
	err := f.handle.Close()
	f.handle = nil
	return err
}

// Backend implements Backender.
func (b *Bex2Stream) Backend() string { return BackendBex2 }

// bex2Range is a stream over positions [lo, hi) of an open .bex v2 file,
// read through the file's shared handle.
type bex2Range struct {
	cur bex2Cursor
}

func (r *bex2Range) Reset() error                                     { r.cur.reset(); return nil }
func (r *bex2Range) Next() (graph.Edge, error)                        { return nextEdge(r) }
func (r *bex2Range) NextBatch(buf []graph.Edge) ([]graph.Edge, error) { return r.cur.nextBatch(buf) }
func (r *bex2Range) Len() (int, bool)                                 { return r.cur.hi - r.cur.lo, true }
func (r *bex2Range) Close() error                                     { r.cur.close(); return nil }
