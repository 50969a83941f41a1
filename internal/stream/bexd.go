package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"degentri/internal/graph"
)

// The .bexd sharded multi-file layout: a directory holding consecutive
// .bex v2 part files plus a manifest —
//
//	graph.bexd/
//	  manifest.json
//	  part-0000.bex
//	  part-0001.bex
//	  ...
//
// The manifest records the global edge count, the encoder block size, and
// for every part its file name, first global edge position, edge count, and
// SHA-256. One logical stream spans the parts (MultiBexStream), so a graph
// is no longer confined to a single file — the on-disk half of any future
// distributed scan, and the natural unit for graphs bigger than one disk.
// Because each part is itself a complete .bex v2 container, every part
// carries its own footer index and checksums, and global RangeStream is the
// concatenation of per-part ranges: still no first-scan index build.
const (
	// BexdExt is the directory extension OpenAuto dispatches on.
	BexdExt = ".bexd"
	// bexdManifest is the manifest file name inside a .bexd directory.
	bexdManifest = "manifest.json"
	// bexdSchemaVersion is bumped whenever the manifest shape changes
	// incompatibly; OpenBexd refuses versions it does not know.
	bexdSchemaVersion = 1
	// DefaultPartEdges is the default part size for WriteBexd: one part per
	// 2^20 edges (8 MiB of v1-equivalent data; typically ~2-4 MiB of v2).
	DefaultPartEdges = 1 << 20
)

// BexdManifest is the decoded manifest.json of a .bexd directory.
type BexdManifest struct {
	SchemaVersion int        `json:"schema_version"`
	Edges         int        `json:"edges"`
	BlockEdges    int        `json:"block_edges"`
	Parts         []BexdPart `json:"parts"`
}

// BexdPart describes one part file of a .bexd directory.
type BexdPart struct {
	File   string `json:"file"`
	First  int    `json:"first"`
	Edges  int    `json:"edges"`
	SHA256 string `json:"sha256"`
}

// WriteBexd writes the stream to a .bexd directory at dir, splitting it into
// .bex v2 parts of up to partEdges edges (<= 0 selects DefaultPartEdges)
// encoded with the given block size (<= 0 selects DefaultBlockEdges), and
// returns the number of edges written. The directory is created if missing;
// an existing manifest.json means dir already holds a graph and is refused
// rather than half-overwritten. An empty stream yields a valid zero-part
// directory.
func WriteBexd(dir string, s Stream, blockEdges, partEdges int) (int, error) {
	if partEdges <= 0 {
		partEdges = DefaultPartEdges
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return 0, fmt.Errorf("stream: create %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, bexdManifest)); err == nil {
		return 0, fmt.Errorf("stream: %s already holds a .bexd manifest; refusing to overwrite", dir)
	}
	man := BexdManifest{SchemaVersion: bexdSchemaVersion, BlockEdges: blockEdges}
	if man.BlockEdges <= 0 {
		man.BlockEdges = DefaultBlockEdges
	}
	pend := make([]graph.Edge, 0, partEdges)
	flush := func() error {
		if len(pend) == 0 {
			return nil
		}
		name := fmt.Sprintf("part-%04d.bex", len(man.Parts))
		sum, err := writeBexdPart(filepath.Join(dir, name), pend, man.BlockEdges)
		if err != nil {
			return err
		}
		man.Parts = append(man.Parts, BexdPart{
			File:   name,
			First:  man.Edges,
			Edges:  len(pend),
			SHA256: sum,
		})
		man.Edges += len(pend)
		pend = pend[:0]
		return nil
	}
	n, err := ForEachBatch(s, func(batch []graph.Edge) error {
		for len(batch) > 0 {
			take := partEdges - len(pend)
			if take > len(batch) {
				take = len(batch)
			}
			pend = append(pend, batch[:take]...)
			batch = batch[take:]
			if len(pend) == partEdges {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	if err := flush(); err != nil {
		return n, err
	}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return n, err
	}
	// Manifest last, atomically: a crashed writer leaves a directory without
	// a manifest (refused by OpenBexd), never a manifest describing missing
	// or partial parts.
	tmp := filepath.Join(dir, bexdManifest+".tmp")
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o666); err != nil {
		return n, fmt.Errorf("stream: write %s manifest: %w", dir, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, bexdManifest)); err != nil {
		return n, fmt.Errorf("stream: commit %s manifest: %w", dir, err)
	}
	return n, nil
}

// writeBexdPart writes one part file and returns its hex SHA-256, computed
// on the fly while writing.
func writeBexdPart(path string, edges []graph.Edge, blockEdges int) (string, error) {
	file, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("stream: create %s: %w", path, err)
	}
	h := sha256.New()
	// The slice stream knows its length, so WriteBex2 never needs to seek
	// and the tee to the hasher sees exactly the bytes on disk.
	_, werr := WriteBex2(io.MultiWriter(file, h), FromEdges(edges), blockEdges)
	cerr := file.Close()
	if werr != nil {
		return "", werr
	}
	if cerr != nil {
		return "", cerr
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ReadBexdManifest reads and structurally validates the manifest of a .bexd
// directory: known schema version, parts contiguous from position zero,
// edge counts consistent with the total. Part contents are not opened here.
func ReadBexdManifest(dir string) (*BexdManifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, bexdManifest))
	if err != nil {
		return nil, fmt.Errorf("stream: %s: reading .bexd manifest: %w (%w)", dir, err, ErrCorruptHeader)
	}
	var man BexdManifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, fmt.Errorf("stream: %s: parsing .bexd manifest: %w (%w)", dir, err, ErrCorruptHeader)
	}
	if man.SchemaVersion != bexdSchemaVersion {
		return nil, fmt.Errorf("stream: %s: .bexd manifest schema %d (this build reads %d): %w",
			dir, man.SchemaVersion, bexdSchemaVersion, ErrCorruptHeader)
	}
	if man.Edges < 0 || man.BlockEdges <= 0 || man.BlockEdges > maxBex2BlockEdges {
		return nil, fmt.Errorf("stream: %s: implausible .bexd manifest (edges %d, block size %d): %w",
			dir, man.Edges, man.BlockEdges, ErrCorruptHeader)
	}
	pos := 0
	for i, p := range man.Parts {
		if p.File != filepath.Base(p.File) || p.File == "" {
			return nil, fmt.Errorf("stream: %s: .bexd part %d names a path (%q), not a file: %w",
				dir, i, p.File, ErrCorruptHeader)
		}
		if p.First != pos || p.Edges <= 0 {
			return nil, fmt.Errorf("stream: %s: .bexd part %d is not contiguous (first %d, want %d, edges %d): %w",
				dir, i, p.First, pos, p.Edges, ErrCorruptHeader)
		}
		pos += p.Edges
	}
	if pos != man.Edges {
		return nil, fmt.Errorf("stream: %s: .bexd parts hold %d edges but the manifest declares %d: %w",
			dir, pos, man.Edges, ErrCorruptHeader)
	}
	return &man, nil
}

// MultiBexStream streams one logical edge sequence spanning the .bex v2
// parts of a .bexd directory. It implements Stream, RangeStreamer, and
// FileBacked, so the sharded pass engine, the fusion scheduler, ScanGroup,
// and the daemon all treat a directory of parts exactly like one file.
//
// The whole directory is its own range: MultiBexStream is the chain of one
// cursor per part, reset lazily as a pass reaches it.
type MultiBexStream struct {
	chainStream
	man   *BexdManifest
	metas []*bex2Meta
	cache bool // part cursors use the decoded-block cache
}

// OpenBexd opens a .bexd directory with buffered part readers. Every part's
// container geometry is validated eagerly (the same checks as OpenBex2 on
// each file, plus agreement with the manifest's per-part edge counts), so a
// deleted, truncated, or swapped part fails at open, not mid-pass. Part
// SHA-256s are not re-hashed here — that is VerifyBexd, the integrity deep
// check — but every block read still verifies its own CRC.
func OpenBexd(dir string) (*MultiBexStream, error) {
	return openBexdCache(dir, false)
}

func openBexdCache(dir string, cache bool) (*MultiBexStream, error) {
	man, err := ReadBexdManifest(dir)
	if err != nil {
		return nil, err
	}
	ms := &MultiBexStream{man: man, metas: make([]*bex2Meta, len(man.Parts)), cache: cache}
	for i, p := range man.Parts {
		path := filepath.Join(dir, p.File)
		file, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("stream: %s: .bexd part %d: %w (%w)", dir, i, err, ErrTruncated)
		}
		meta, err := readBex2Meta(file, path)
		file.Close()
		if err != nil {
			return nil, err
		}
		if meta.m != p.Edges {
			return nil, fmt.Errorf("stream: %s: .bexd part %d holds %d edges but the manifest declares %d: %w",
				dir, i, meta.m, p.Edges, ErrCorruptHeader)
		}
		ms.metas[i] = meta
	}
	ms.chainStream = chainStream{subs: make([]Stream, len(ms.metas)), m: man.Edges}
	for i := range ms.metas {
		ms.subs[i] = ms.partStream(i, 0, ms.metas[i].m)
	}
	return ms, nil
}

// partStream builds a cursor over positions [lo, hi) of part i.
func (ms *MultiBexStream) partStream(i, lo, hi int) Stream {
	meta := ms.metas[i]
	return &bex2Range{cur: bex2Cursor{meta: meta, src: &bex2FileSource{meta: meta}, lo: lo, hi: hi, cache: ms.cache}}
}

// RangeStream implements RangeStreamer: a global position range maps to the
// covering run of parts (binary search on the manifest's first positions)
// and becomes a chain of per-part range cursors. Available from open — the
// parts' footer indexes already exist — so, like the single-file v2 reader,
// a .bexd directory needs no first-scan index build.
func (ms *MultiBexStream) RangeStream(lo, hi int) (Stream, bool) {
	if lo < 0 || hi < lo || hi > ms.man.Edges {
		return nil, false
	}
	if lo == hi {
		return FromEdges(nil), true
	}
	first := sort.Search(len(ms.man.Parts), func(i int) bool {
		p := ms.man.Parts[i]
		return p.First+p.Edges > lo
	})
	var subs []Stream
	for i := first; i < len(ms.man.Parts) && ms.man.Parts[i].First < hi; i++ {
		p := ms.man.Parts[i]
		slo, shi := lo-p.First, hi-p.First
		if slo < 0 {
			slo = 0
		}
		if shi > p.Edges {
			shi = p.Edges
		}
		subs = append(subs, ms.partStream(i, slo, shi))
	}
	if len(subs) == 1 {
		return subs[0], true
	}
	return &chainStream{subs: subs, m: hi - lo}, true
}

// Backend implements Backender.
func (ms *MultiBexStream) Backend() string { return BackendBexd }

// chainStream concatenates sub-streams into one logical pass. Sub-streams
// are reset lazily as the pass reaches them and closed with the chain; Close
// leaves the chain ready to be Reset again.
type chainStream struct {
	subs   []Stream
	m      int
	idx    int
	active bool
}

func (c *chainStream) Reset() error {
	c.idx = 0
	c.active = true
	if len(c.subs) == 0 {
		return nil
	}
	return c.subs[0].Reset()
}

func (c *chainStream) advance() error {
	c.idx++
	if c.idx >= len(c.subs) {
		return ErrEndOfPass
	}
	return c.subs[c.idx].Reset()
}

func (c *chainStream) Next() (graph.Edge, error) { return nextEdge(c) }

// NextBatch implements Stream. Batches never span a sub-stream boundary;
// callers already handle short batches.
func (c *chainStream) NextBatch(buf []graph.Edge) ([]graph.Edge, error) {
	if !c.active {
		return nil, ErrNoPass
	}
	for c.idx < len(c.subs) {
		batch, err := c.subs[c.idx].NextBatch(buf)
		if err == ErrEndOfPass {
			if aerr := c.advance(); aerr != nil {
				return nil, aerr
			}
			continue
		}
		return batch, err
	}
	return nil, ErrEndOfPass
}

func (c *chainStream) Len() (int, bool) { return c.m, true }

func (c *chainStream) Close() error {
	c.active = false
	var first error
	for _, s := range c.subs {
		if cl, ok := s.(interface{ Close() error }); ok {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// VerifyBexd re-hashes every part of a .bexd directory against the
// manifest's SHA-256s — the deep integrity check OpenBexd deliberately
// skips. Nothing in the streaming path calls it (only tests do today); the
// streaming path relies on per-block CRCs instead.
func VerifyBexd(dir string) error {
	man, err := ReadBexdManifest(dir)
	if err != nil {
		return err
	}
	for i, p := range man.Parts {
		path := filepath.Join(dir, p.File)
		file, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("stream: %s: .bexd part %d: %w (%w)", dir, i, err, ErrTruncated)
		}
		h := sha256.New()
		_, cerr := io.Copy(h, file)
		file.Close()
		if cerr != nil {
			return fmt.Errorf("stream: %s: hashing .bexd part %d: %w", dir, i, cerr)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != p.SHA256 {
			return fmt.Errorf("stream: %s: .bexd part %d checksum mismatch (got %s, want %s): %w",
				dir, i, got, p.SHA256, ErrCorruptBlock)
		}
	}
	return nil
}
