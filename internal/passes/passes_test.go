package passes_test

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"degentri/internal/gen"
	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

// testGraph is large enough that the shard grid has several active shards
// (ActiveShards = ⌈m/8192⌉), so the parallel path of every pass is exercised
// for real rather than degrading to the sequential fallback.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.HolmeKim(5000, 5, 0.6, 33)
	if a := stream.ActiveShards(g.NumEdges()); a < 3 {
		t.Fatalf("test graph too small: %d edges give %d shards", g.NumEdges(), a)
	}
	return g
}

var workerSweep = []int{1, 2, 4, 8}

// sparseOffset lifts vertex IDs past the 2^23-ID bound on the lookup
// structures' bitsets (graph's rankTableLimit): a key set holding such an ID
// has no bitset, so its pass binary-searches the keys on every stream edge.
const sparseOffset = 1 << 24

// sparseID relabels every vertex not divisible by 4 to v + sparseOffset, so a
// relabeled key set mixes small and huge IDs.
func sparseID(v int) int {
	if v%4 == 0 {
		return v
	}
	return v + sparseOffset
}

// passInput is one edge stream a pass test runs on: id maps the vertex IDs the
// test picks to the stream's IDs.
type passInput struct {
	name  string
	edges []graph.Edge
	id    func(v int) int
}

// ids maps vs through in.id.
func (in passInput) ids(vs []int) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = in.id(v)
	}
	return out
}

// edge returns the normalized edge (in.id(u), in.id(v)).
func (in passInput) edge(u, v int) graph.Edge { return graph.NewEdge(in.id(u), in.id(v)) }

// withLoops returns the stream with a self-loop at every vertex below 10,000
// (past the test graph's largest ID, so isolated vertices get one too),
// loop v placed after edge v·m/10,000 so loops land in every shard. Every
// pass ignores loops, so the brute-force references skip them.
func withLoops(edges []graph.Edge) passInput {
	const loops = 10000
	out := make([]graph.Edge, 0, len(edges)+loops)
	v := 0
	for i, e := range edges {
		out = append(out, e)
		for ; v < loops && v*len(edges)/loops <= i; v++ {
			out = append(out, graph.Edge{U: int32(v), V: int32(v)})
		}
	}
	return passInput{name: "loops", edges: out, id: func(v int) int { return v }}
}

// relabeled returns edges with both endpoints mapped through sparseID.
func relabeled(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: int32(sparseID(int(e.U))), V: int32(sparseID(int(e.V)))}
	}
	return out
}

// passInputs returns the stream as given, whose lookups go through the
// structures' bitsets, and the same stream relabeled by sparseID, whose
// lookups fall back to binary search.
func passInputs(edges []graph.Edge) []passInput {
	return []passInput{
		{name: "dense", edges: edges, id: func(v int) int { return v }},
		{name: "sparse", edges: relabeled(edges), id: sparseID},
	}
}

func TestCountDegrees(t *testing.T) {
	edges := testGraph(t).Edges()
	for _, in := range append(passInputs(edges), withLoops(edges)) {
		edges := in.edges
		m := len(edges)

		// Track a subset of vertices, including some out-of-graph keys.
		keys := in.ids([]int{0, 1, 2, 3, 500, 1000, 2500, 4999, 7777})
		want := map[int]int{}
		for _, k := range keys {
			want[k] = 0
		}
		for _, e := range edges {
			if e.U == e.V {
				continue
			}
			for _, v := range []int{int(e.U), int(e.V)} {
				if _, ok := want[v]; ok {
					want[v]++
				}
			}
		}
		for _, workers := range workerSweep {
			deg := graph.NewSortedCounter(slices.Clone(keys))
			if err := passes.CountDegrees(passes.NewDirect(stream.FromEdges(edges), m, workers), deg); err != nil {
				t.Fatalf("%s workers=%d: %v", in.name, workers, err)
			}
			for _, k := range keys {
				got, ok := deg.Get(k)
				if !ok || got != want[k] {
					t.Errorf("%s workers=%d: deg[%d] = %d (ok=%v), want %d", in.name, workers, k, got, ok, want[k])
				}
			}
		}
	}
}

// TestExecutorVertices pins the vertex count an executor hands on: the one
// its stream reports beside its length, 1 + the largest vertex ID (0 when no
// ID is non-negative), and none for a stream that reports no count.
func TestExecutorVertices(t *testing.T) {
	g := testGraph(t)
	m := g.NumEdges()
	want := -1
	for _, e := range g.Edges() {
		want = max(want, int(e.U), int(e.V))
	}
	for _, workers := range workerSweep {
		if n, ok := passes.NewDirect(stream.FromGraph(g), m, workers).Vertices(); !ok || n != want+1 {
			t.Errorf("workers=%d: Vertices() = %d, %v; want %d", workers, n, ok, want+1)
		}
	}
	neg := []graph.Edge{{U: -1, V: -2}, {U: -7, V: -3}}
	if n, ok := passes.NewDirect(stream.FromEdges(neg), len(neg), 1).Vertices(); !ok || n != 0 {
		t.Errorf("negative-only stream: Vertices() = %d, %v; want 0", n, ok)
	}
	// PassCounter forwards no vertex count.
	if n, ok := passes.NewDirect(stream.NewPassCounter(stream.FromGraph(g)), m, 1).Vertices(); ok {
		t.Errorf("a stream without a vertex count gave its executor %d", n)
	}
}

func TestCountDegreesMasked(t *testing.T) {
	g := testGraph(t)
	edges := g.Edges()
	m := len(edges)
	n := g.NumVertices()

	// Kill every third vertex; the pass must count only edges whose both
	// endpoints survive.
	alive := graph.NewBitset(n)
	alive.SetAll()
	for v := 0; v < n; v += 3 {
		alive.Unset(v)
	}
	want := make([]int32, n)
	var wantEdges int64
	for _, e := range edges {
		if alive.Test(int(e.U)) && alive.Test(int(e.V)) {
			want[e.U]++
			want[e.V]++
			wantEdges++
		}
	}
	// By rank, the same counts land on the alive vertices in ascending ID
	// order, one slot each.
	var wantRanked []int32
	alive.ForEach(func(v int) { wantRanked = append(wantRanked, want[v]) })
	rank := make([]int32, (n+63)/64)
	alive.RankBase(rank)
	for _, workers := range workerSweep {
		deg := make([]int32, n)
		induced, err := passes.CountDegreesMasked(passes.NewDirect(stream.FromGraph(g), m, workers), alive, nil, deg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if induced != wantEdges {
			t.Errorf("workers=%d: induced edges = %d, want %d", workers, induced, wantEdges)
		}
		if !slices.Equal(deg, want) {
			t.Errorf("workers=%d: induced degrees diverge from the brute-force count", workers)
		}

		ranked := make([]int32, alive.Count())
		induced, err = passes.CountDegreesMasked(passes.NewDirect(stream.FromGraph(g), m, workers), alive, rank, ranked)
		if err != nil {
			t.Fatalf("workers=%d ranked: %v", workers, err)
		}
		if induced != wantEdges || !slices.Equal(ranked, wantRanked) {
			t.Errorf("workers=%d: ranked count (%d edges) diverges from the brute-force count (%d)", workers, induced, wantEdges)
		}
	}

	// Self loops and negative endpoints are skipped, not counted and not a
	// crash.
	dirty := []graph.Edge{{U: 0, V: 0}, {U: -1, V: 1}, {U: 1, V: 2}}
	small := graph.NewBitset(3)
	small.SetAll()
	deg := make([]int32, 3)
	induced, err := passes.CountDegreesMasked(passes.NewDirect(stream.FromEdges(dirty), len(dirty), 1), small, nil, deg)
	if err != nil {
		t.Fatal(err)
	}
	if induced != 1 || deg[0] != 0 || deg[1] != 1 || deg[2] != 1 {
		t.Fatalf("dirty stream: induced=%d deg=%v", induced, deg)
	}
	// An endpoint at or above the mask's length means the stream's vertex
	// count was too small: the pass fails naming the edge.
	over := append(slices.Clone(dirty), graph.Edge{U: 1, V: 99})
	_, err = passes.CountDegreesMasked(passes.NewDirect(stream.FromEdges(over), len(over), 1), small, nil, make([]int32, 3))
	if !errors.Is(err, stream.ErrCorruptHeader) || !strings.Contains(err.Error(), "(1,99)") {
		t.Fatalf("edge (1,99) under a 3-vertex mask: %v, want an error naming it and wrapping ErrCorruptHeader", err)
	}
}

func TestSampleUniformEdges(t *testing.T) {
	g := testGraph(t)
	edges := g.Edges()
	m := len(edges)
	// r = 3m makes positions repeat and puts samples on both sides of every
	// batch and shard boundary.
	r := 3 * m

	// Re-derive the positions the pass will draw so each sampled edge can be
	// checked against the stream position it claims to hold.
	posRNG := sampling.NewRNG(77)
	positions := make([]int, r)
	for i := range positions {
		positions[i] = posRNG.Intn(m)
	}
	sampling.SortPositions(positions)

	dir := t.TempDir()
	bexPath := filepath.Join(dir, "g.bex")
	if _, err := stream.WriteBex2File(bexPath, stream.FromGraph(g), 64); err != nil {
		t.Fatal(err)
	}
	textPath := filepath.Join(dir, "g.txt")
	if err := stream.WriteGraphFile(textPath, g, ""); err != nil {
		t.Fatal(err)
	}
	bex, err := stream.OpenBex2(bexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer bex.Close()
	// The text stream's first pass parses the text; later passes read its
	// .bex copy by shard.
	text := stream.OpenFile(textPath)
	defer text.Close()
	sources := []struct {
		name string
		s    stream.Stream
	}{
		{"memory", stream.FromGraph(g)},
		{"bex2-64", bex},
		{"text", text},
	}

	var base []graph.Edge
	for _, src := range sources {
		for _, workers := range workerSweep {
			sample, err := passes.SampleUniformEdges(passes.NewDirect(src.s, m, workers), sampling.NewRNG(77), r)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", src.name, workers, err)
			}
			if len(sample) != r {
				t.Fatalf("%s workers=%d: %d samples, want %d", src.name, workers, len(sample), r)
			}
			for i, e := range sample {
				if want := edges[positions[i]].Normalize(); e != want {
					t.Fatalf("%s workers=%d: sample %d = %v, want edge at position %d = %v",
						src.name, workers, i, e, positions[i], want)
				}
			}
			if base == nil {
				base = sample
			} else if !slices.Equal(sample, base) {
				t.Errorf("%s workers=%d: sample diverges from memory at workers=1", src.name, workers)
			}
		}
	}
}

// adjacency returns the neighbor multiset of v in the edge list; a self-loop
// makes no vertex its own neighbor.
func adjacency(edges []graph.Edge, v int) []int {
	var out []int
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if int(e.U) == v {
			out = append(out, int(e.V))
		}
		if int(e.V) == v {
			out = append(out, int(e.U))
		}
	}
	return out
}

func TestSampleNeighbors(t *testing.T) {
	edges := testGraph(t).Edges()
	for _, in := range append(passInputs(edges), withLoops(edges)) {
		edges := in.edges
		m := len(edges)

		// A few instances per vertex, including a vertex with no edges.
		vertices := in.ids([]int{0, 1, 7, 100, 2500, 4999, 9999})
		var instVertex []int
		for _, v := range vertices {
			instVertex = append(instVertex, v, v)
		}
		groups := graph.NewVertexGroups(slices.Clone(instVertex))
		n := len(instVertex)

		var base []sampling.Res1Merger
		for _, workers := range workerSweep {
			merged, err := passes.SampleNeighbors(
				passes.NewDirect(stream.FromEdges(edges), m, workers), groups, n, 12345, 3, 4)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", in.name, workers, err)
			}
			for i, v := range instVertex {
				adj := adjacency(edges, v)
				if len(adj) == 0 {
					if merged[i].Has() {
						t.Errorf("%s workers=%d: instance %d (vertex %d) sampled from an empty neighborhood", in.name, workers, i, v)
					}
					continue
				}
				if !merged[i].Has() {
					t.Errorf("%s workers=%d: instance %d (vertex %d) sampled nothing from %d neighbors", in.name, workers, i, v, len(adj))
					continue
				}
				if !slices.Contains(adj, merged[i].W) {
					t.Errorf("%s workers=%d: instance %d sampled %d, not a neighbor of %d", in.name, workers, i, merged[i].W, v)
				}
				if merged[i].N != int64(len(adj)) {
					t.Errorf("%s workers=%d: instance %d saw %d offers, want %d", in.name, workers, i, merged[i].N, len(adj))
				}
			}
			if base == nil {
				base = merged
			} else {
				for i := range merged {
					if merged[i].N != base[i].N || merged[i].W != base[i].W {
						t.Errorf("%s workers=%d: instance %d sample diverges from workers=1", in.name, workers, i)
					}
				}
			}
		}
	}
}

// bankSizes returns the bank sizes TestSampleNeighborBanks sweeps for the
// given group vertices: 3, below the busiest vertex's largest per-shard offer
// count (Algorithm L in that shard); one between that count and the vertex's
// degree (verbatim shards, saturating merges); and the largest degree
// (verbatim everywhere).
func bankSizes(t *testing.T, edges []graph.Edge, vertices []int) []int {
	t.Helper()
	busiest, maxDeg := 0, 0
	for _, v := range vertices {
		if d := len(adjacency(edges, v)); d > maxDeg {
			busiest, maxDeg = v, d
		}
	}
	perShard := 0
	for shard := 0; shard < stream.ActiveShards(len(edges)); shard++ {
		lo, hi := stream.ShardRange(len(edges), shard)
		perShard = max(perShard, len(adjacency(edges[lo:hi], busiest)))
	}
	saturating := (perShard + maxDeg) / 2
	if !(3 < perShard && perShard < saturating && saturating < maxDeg) {
		t.Fatalf("vertex %d (degree %d, %d offers in one shard) leaves no bank size between", busiest, maxDeg, perShard)
	}
	return []int{3, saturating, maxDeg}
}

func TestSampleNeighborBanks(t *testing.T) {
	// Shuffle the stream so every vertex's offers spread over the shards.
	edges := slices.Clone(testGraph(t).Edges())
	sampling.NewRNG(7).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, in := range append(passInputs(edges), withLoops(edges)) {
		edges := in.edges
		m := len(edges)

		vertices := in.ids([]int{0, 3, 42, 1234, 4998})
		groups := graph.NewVertexGroups(slices.Clone(vertices))
		n := len(vertices)

		for _, k := range bankSizes(t, edges, vertices) {
			var base []sampling.ResKMerger
			for _, workers := range workerSweep {
				merged, err := passes.SampleNeighborBanks(
					passes.NewDirect(stream.FromEdges(edges), m, workers), groups, n, k, 999, 30, 31)
				if err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", in.name, k, workers, err)
				}
				for i, v := range vertices {
					adj := adjacency(edges, v)
					b := &merged[i]
					if !b.Has() {
						t.Fatalf("%s k=%d workers=%d: vertex %d has %d neighbors but no samples", in.name, k, workers, v, len(adj))
					}
					if b.N != int64(len(adj)) {
						t.Errorf("%s k=%d workers=%d: vertex %d saw %d offers, want its degree %d", in.name, k, workers, v, b.N, len(adj))
					}
					sum := 0
					for _, c := range b.C {
						sum += c
					}
					if len(b.C) != len(b.W) || sum != k || len(b.W) > min(k, len(adj)) {
						t.Fatalf("%s k=%d workers=%d: vertex %d (degree %d) bank holds W=%v C=%v, want at most %d distinct neighbors whose counts sum to %d",
							in.name, k, workers, v, len(adj), b.W, b.C, min(k, len(adj)), k)
					}
					for j, w := range b.W {
						if !slices.Contains(adj, w) || slices.Index(b.W, w) != j {
							t.Errorf("%s k=%d workers=%d: bank[%d] W[%d] = %d is not a distinct neighbor of %d", in.name, k, workers, i, j, w, v)
						}
					}
				}
				if base == nil {
					base = merged
					continue
				}
				for i := range merged {
					if !slices.Equal(merged[i].W, base[i].W) || !slices.Equal(merged[i].C, base[i].C) {
						t.Errorf("%s k=%d workers=%d: bank %d diverges from workers=1: W=%v C=%v vs W=%v C=%v",
							in.name, k, workers, i, merged[i].W, merged[i].C, base[i].W, base[i].C)
					}
				}
			}
		}
	}
}

func TestClosureBits(t *testing.T) {
	for _, in := range passInputs(testGraph(t).Edges()) {
		edges := in.edges
		m := len(edges)

		// Half the keys are real edges, half are fabricated non-edges.
		var keys []graph.Edge
		for i := 0; i < 40; i++ {
			keys = append(keys, edges[(i*997)%m])
		}
		for i := 0; i < 40; i++ {
			keys = append(keys, in.edge(6000+i, 7000+i))
		}
		idx := graph.NewEdgeIndex(keys)

		present := map[graph.Edge]bool{}
		for _, e := range edges {
			present[e.Normalize()] = true
		}
		degKeys := in.ids([]int{0, 10, 20})
		wantDeg := map[int]int{}
		for _, e := range edges {
			for _, v := range []int{int(e.U), int(e.V)} {
				if slices.Contains(degKeys, v) {
					wantDeg[v]++
				}
			}
		}

		for _, workers := range workerSweep {
			extraDeg := graph.NewSortedCounter(slices.Clone(degKeys))
			bits, err := passes.ClosureBits(passes.NewDirect(stream.FromEdges(edges), m, workers), idx, len(keys), extraDeg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", in.name, workers, err)
			}
			for i, key := range keys {
				if bits.Test(i) != present[key.Normalize()] {
					t.Errorf("%s workers=%d: item %d (%v) hit=%v, want %v",
						in.name, workers, i, key, bits.Test(i), present[key.Normalize()])
				}
			}
			for _, v := range degKeys {
				if got, _ := extraDeg.Get(v); got != wantDeg[v] {
					t.Errorf("%s workers=%d: extraDeg[%d] = %d, want %d", in.name, workers, v, got, wantDeg[v])
				}
			}
		}
	}
}

func TestClosureCounts(t *testing.T) {
	// A stream with deliberate duplicates: counts must tally multiplicity.
	var dups []graph.Edge
	for i := 0; i < 20000; i++ {
		dups = append(dups, graph.NewEdge(i%100, 100+i%7))
	}
	for _, in := range passInputs(dups) {
		edges := in.edges
		m := len(edges)

		keys := []graph.Edge{
			in.edge(0, 100),
			in.edge(1, 101),
			in.edge(55, 103),
			in.edge(9999, 9998), // absent
		}
		idx := graph.NewEdgeIndex(keys)
		want := make([]int, len(keys))
		for _, e := range edges {
			for i, key := range keys {
				if e.Normalize() == key.Normalize() {
					want[i]++
				}
			}
		}

		for _, workers := range workerSweep {
			counts, err := passes.ClosureCounts(passes.NewDirect(stream.FromEdges(slices.Clone(edges)), m, workers), idx, len(keys))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", in.name, workers, err)
			}
			if !slices.Equal(counts, want) {
				t.Errorf("%s workers=%d: counts = %v, want %v", in.name, workers, counts, want)
			}
		}
	}
}

// TestNeighborSampleUniformity spot-checks that the merged single-neighbor
// sample is roughly uniform over the neighborhood when the instance count is
// large: many instances share one vertex of known degree and the empirical
// distribution over its neighbors must not be wildly skewed.
func TestNeighborSampleUniformity(t *testing.T) {
	// A star: vertex 0 with 64 leaves, embedded in filler edges so the stream
	// spans several shards (the leaves' edges scatter across shards).
	const leaves = 64
	var edges []graph.Edge
	for i := 0; i < leaves; i++ {
		edges = append(edges, graph.NewEdge(0, 1+i))
	}
	for i := 0; i < 30000; i++ {
		edges = append(edges, graph.NewEdge(1000+i%500, 2000+i%700))
	}
	// Interleave deterministically so the star edges are spread out.
	rng := sampling.NewRNG(5)
	for i := len(edges) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	m := len(edges)

	const n = 6000
	instVertex := make([]int, n)
	groups := graph.NewVertexGroups(slices.Clone(instVertex)) // all zeros: vertex 0
	merged, err := passes.SampleNeighbors(passes.NewDirect(stream.FromEdges(edges), m, 4), groups, n, 271828, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]int, leaves+1)
	for i := range merged {
		if !merged[i].Has() {
			t.Fatalf("instance %d sampled nothing", i)
		}
		hist[merged[i].W]++
	}
	// Expected n/leaves ≈ 94 per leaf; allow a generous ±60% band.
	lo, hi := n/leaves*2/5, n/leaves*8/5
	for leaf := 1; leaf <= leaves; leaf++ {
		if hist[leaf] < lo || hist[leaf] > hi {
			t.Errorf("leaf %d drawn %d times, outside [%d, %d]", leaf, hist[leaf], lo, hi)
		}
	}
}
