package corpus

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"degentri/internal/graph"
	"degentri/internal/stream"
)

// Canonicalize reads a SNAP-style text edge list and returns the canonical
// edge sequence:
//
//   - comment lines (#, %) and blank lines are skipped;
//   - self-loops are dropped;
//   - vertex IDs are remapped to dense int IDs in first-appearance order
//     (SNAP IDs are sparse and sometimes huge);
//   - duplicate edges are dropped — SNAP lists undirected graphs as both
//     (u,v) and (v,u), and EstimateFile streams verbatim, so duplicates
//     would silently double m;
//   - when maxEdges > 0 only the first maxEdges kept edges are retained (a
//     deterministic prefix sample, used to keep the road/web graphs
//     CI-sized).
//
// The returned order (first appearance) is the canonical stream order: the
// .bex and .txt cache files are written in exactly this order, which is what
// makes their estimates bit-identical for a given seed.
func Canonicalize(r io.Reader, maxEdges int) ([]graph.Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)

	remap := make(map[int64]int)
	seen := make(map[graph.Edge]struct{})
	var edges []graph.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		i := 0
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		if i == len(line) || line[i] == '#' || line[i] == '%' {
			continue
		}
		u, i, err := parseInt64(line, i, lineNo)
		if err != nil {
			return nil, err
		}
		v, i, err := parseInt64(line, i, lineNo)
		if err != nil {
			return nil, err
		}
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		// Trailing columns (weights, timestamps) are tolerated and ignored.
		_ = i
		if u == v {
			continue
		}
		du, ok := remap[u]
		if !ok {
			du = len(remap)
			remap[u] = du
		}
		dv, ok := remap[v]
		if !ok {
			dv = len(remap)
			remap[v] = dv
		}
		e := graph.NewEdge(du, dv)
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		// NewEdge above has checked that both IDs fit an int32.
		edges = append(edges, graph.Edge{U: int32(du), V: int32(dv)})
		if maxEdges > 0 && len(edges) >= maxEdges {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus: canonicalize line %d: %w", lineNo, err)
	}
	return edges, nil
}

// parseInt64 parses one whitespace-delimited non-negative integer field.
func parseInt64(line []byte, i, lineNo int) (int64, int, error) {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	start := i
	var v int64
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		v = v*10 + int64(line[i]-'0')
		if v < 0 {
			return 0, i, fmt.Errorf("corpus: line %d: vertex ID overflows", lineNo)
		}
		i++
	}
	if i == start {
		return 0, i, fmt.Errorf("corpus: line %d: expected a vertex ID, got %q", lineNo, string(line))
	}
	return v, i, nil
}

// writeCanonical writes the canonical edge sequence as <name>.bex and
// <name>.txt under dir, atomically (temp file + rename, so an interrupted
// write never leaves a plausible-looking partial cache file). The .bex is
// written in the v2 block-indexed format (the cache's canonical binary form
// since manifest schema 2). It returns the SHA-256 of the .bex.
func writeCanonical(dir, name string, edges []graph.Edge) (bexSHA string, err error) {
	if len(edges) == 0 {
		return "", fmt.Errorf("corpus: %s canonicalized to zero edges", name)
	}
	bexPath := filepath.Join(dir, name+stream.BexExt)
	txtPath := filepath.Join(dir, name+".txt")

	bexTmp := bexPath + ".tmp"
	if _, err := stream.WriteBex2File(bexTmp, stream.FromEdges(edges), 0); err != nil {
		os.Remove(bexTmp)
		return "", fmt.Errorf("corpus: write %s: %w", bexPath, err)
	}
	txtTmp := txtPath + ".tmp"
	tf, err := os.Create(txtTmp)
	if err != nil {
		os.Remove(bexTmp)
		return "", fmt.Errorf("corpus: %w", err)
	}
	_, werr := stream.WriteEdgeList(tf, stream.FromEdges(edges))
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(bexTmp)
		os.Remove(txtTmp)
		return "", fmt.Errorf("corpus: write %s: %w", txtPath, werr)
	}
	if err := os.Rename(bexTmp, bexPath); err != nil {
		os.Remove(bexTmp)
		os.Remove(txtTmp)
		return "", fmt.Errorf("corpus: %w", err)
	}
	if err := os.Rename(txtTmp, txtPath); err != nil {
		os.Remove(txtTmp)
		return "", fmt.Errorf("corpus: %w", err)
	}
	return FileSHA256(bexPath)
}

// edgeFacts returns n (1 + max vertex ID) and m of an edge sequence.
func edgeFacts(edges []graph.Edge) (n, m int) {
	maxID := -1
	for _, e := range edges {
		maxID = max(maxID, int(e.U), int(e.V))
	}
	return maxID + 1, len(edges)
}
