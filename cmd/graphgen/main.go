// Command graphgen generates the synthetic graph families used by the
// experiments and writes them as edge-list files consumable by trianglecount
// and by any other edge-list tool. The output's extension picks the format:
// .bex writes the block-indexed compressed binary format (.bex v2), which
// parses an order of magnitude faster than text and supports sharded
// parallel passes natively; any other name writes text. -convert translates
// an existing text or .bex v2 file to either format.
//
// Usage:
//
//	graphgen -family wheel -n 100000 -out wheel.txt
//	graphgen -family ba -n 50000 -k 4 -seed 7 -out ba.bex
//	graphgen -family chunglu -n 50000 -avgdeg 8 -beta 2.5 -out cl.txt
//	graphgen -family book -pages 10000 -out book.txt
//	graphgen -convert ba.txt -out ba.bex
//	graphgen -convert ba.bex -out ba.txt
//
// Exit codes: 0 success; 1 internal error; 2 usage error; 3 I/O error
// (missing, unreadable, truncated, or corrupt input, or an unwritable
// output).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strings"

	"degentri/internal/buildinfo"
	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/stream"
)

func main() {
	var (
		family     = flag.String("family", "wheel", "graph family: wheel, book, friendship, apollonian, grid, tri-grid, complete, ba, chunglu, gnm, star-triangles")
		n          = flag.Int("n", 10000, "number of vertices (or insertions/pages where noted)")
		k          = flag.Int("k", 4, "attachment parameter / part size / triangles")
		pages      = flag.Int("pages", 1000, "pages for the book family")
		avgdeg     = flag.Float64("avgdeg", 8, "average degree for chunglu")
		beta       = flag.Float64("beta", 2.5, "power-law exponent for chunglu")
		m          = flag.Int("m", 0, "edge count for gnm (default 4n)")
		seed       = flag.Uint64("seed", 1, "random seed")
		out        = flag.String("out", "", "output path (default stdout); a .bex name selects the binary .bex v2 format, any other name text")
		blockEdges = flag.Int("block-edges", 0, "edges per .bex v2 block (default 8192)")
		convert    = flag.String("convert", "", "convert this edge file (text or .bex v2) to -out instead of generating")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("graphgen"))
		return
	}

	if *convert != "" {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "graphgen: -convert requires -out")
			os.Exit(2)
		}
		src, err := stream.OpenAuto(*convert)
		exitOn(err)
		edges, err := writeOut(*out, src, *blockEdges)
		// Close before exitOn: os.Exit skips deferred calls, and closing a
		// text source removes the .bex v2 copy its pass wrote to TMPDIR.
		if cerr := src.Close(); err == nil {
			err = cerr
		}
		exitOn(err)
		fmt.Printf("converted %s -> %s (%d edges)\n", *convert, *out, edges)
		return
	}

	var g *graph.Graph
	switch *family {
	case "wheel":
		g = gen.Wheel(*n)
	case "book":
		g = gen.Book(*pages)
	case "friendship":
		g = gen.Friendship(*k)
	case "apollonian":
		g = gen.Apollonian(*n)
	case "grid":
		g = gen.Grid(*n, *n)
	case "tri-grid":
		g = gen.TriangularGrid(*n, *n)
	case "complete":
		g = gen.Complete(*n)
	case "ba":
		g = gen.BarabasiAlbert(*n, *k, *seed)
	case "chunglu":
		g = gen.ChungLu(*n, *avgdeg, *beta, *seed)
	case "gnm":
		edges := *m
		if edges == 0 {
			edges = 4 * *n
		}
		g = gen.ErdosRenyiGNM(*n, edges, *seed)
	case "star-triangles":
		g = gen.StarPlusTriangles(*n, *k)
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown family %q\n", *family)
		os.Exit(2)
	}

	comment := fmt.Sprintf("family=%s n=%d seed=%d degeneracy=%d triangles=%d",
		*family, g.NumVertices(), *seed, g.Degeneracy(), g.TriangleCount())
	if *out == "" {
		if _, err := stream.WriteEdgeList(os.Stdout, stream.FromGraph(g)); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "# "+comment)
		return
	}
	if isBex(*out) {
		_, err := stream.WriteBex2File(*out, stream.FromGraph(g), *blockEdges)
		exitOn(err)
	} else {
		exitOn(stream.WriteGraphFile(*out, g, comment))
	}
	fmt.Printf("wrote %s: %s\n", *out, comment)
}

// isBex reports whether out names a .bex v2 file; any other name is text.
func isBex(out string) bool { return strings.HasSuffix(strings.ToLower(out), stream.BexExt) }

// writeOut writes the stream to out in the format its extension picks. Both
// formats are written to out+".tmp" and renamed over out only on success, so
// a failed conversion leaves out as it was and out may name the input.
func writeOut(out string, s stream.Stream, blockEdges int) (int, error) {
	if isBex(out) {
		return stream.WriteBex2File(out, s, blockEdges)
	}
	tmp := out + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	edges, err := stream.WriteEdgeList(file, s)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, out)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return edges, err
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		var perr *fs.PathError
		if errors.Is(err, stream.ErrTruncated) || errors.Is(err, stream.ErrCorruptHeader) ||
			errors.Is(err, stream.ErrCorruptBlock) ||
			errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) || errors.As(err, &perr) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}
