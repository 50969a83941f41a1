package baseline

import (
	"fmt"
	"math"
	"sort"

	"degentri/internal/core"
	"degentri/internal/graph"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

// HeavyLightConfig configures the multi-pass heavy/light estimator.
type HeavyLightConfig struct {
	// SampledEdges is r, the number of uniform edge samples used for the
	// light part; Θ(m^{3/2}/(ε²T)) samples give a (1±ε) estimate.
	SampledEdges int
	// DegreeThreshold overrides the heavy-degree threshold θ; when zero the
	// canonical θ = √(2m) is used.
	DegreeThreshold float64
	// Seed drives the sampling.
	Seed uint64
}

// HeavyLight is a multi-pass estimator in the style of McGregor, Vorotnikova
// and Vu (PODS 2016) achieving space O(n + m^{3/2}/T) words:
//
//   - every triangle is attributed to its minimum-edge-degree edge (ties
//     broken lexicographically);
//   - triangles attributed to a *heavy* edge (d_e ≥ θ = √(2m)) have all three
//     endpoints of degree ≥ θ, so they live in the induced subgraph on heavy
//     vertices, which is stored and counted exactly;
//   - triangles attributed to a *light* edge are estimated by sampling r
//     uniform edges, drawing a uniform neighbor of the light endpoint of each
//     sampled light edge, and accepting the discovered triangle only when the
//     sampled edge is its attributed edge. Each accepted discovery
//     contributes d_e·m/r.
//
// The full degree table (n words) makes the attribution test exact; this
// additive n term is standard for this family of algorithms and is charged to
// the meter so comparisons stay honest.
//
// Passes: 1 (degrees + m) · 2 (heavy subgraph + edge sample) · 3 (neighbor
// sampling) · 4 (closure checks) = 4 passes.
//
// Self-loops count toward m but follow the sharded passes' rule otherwise: a
// loop adds no degree, a sampled loop has edge degree 0 (no wedge to
// close), and a loop offers no neighbor.
func HeavyLight(src stream.Stream, cfg HeavyLightConfig) (core.Result, error) {
	if cfg.SampledEdges < 1 {
		return core.Result{}, fmt.Errorf("baseline: heavy/light needs at least one sampled edge, got %d", cfg.SampledEdges)
	}
	rng := sampling.NewRNG(cfg.Seed)
	meter := stream.NewSpaceMeter()
	counter := stream.NewPassCounter(src)
	res := core.Result{SampledEdges: cfg.SampledEdges}

	// ----- Pass 1: all vertex degrees and m. -----
	// Vertex IDs are dense ints in this repository, so the degree table is a
	// flat slice grown on demand — a slice index per endpoint instead of a
	// hash probe. IDs beyond the dense budget (possible in hand-written edge
	// files) go through a sparseDegreeTable — an append buffer periodically
	// sort-merged into sorted (key, count) arrays — so one huge ID cannot
	// balloon the slice, no hash map sits in the hot loop, and memory stays
	// O(distinct + chunk) rather than O(occurrences). The meter is charged
	// for the touched (nonzero) vertices, as a pure map version would be.
	const denseDegreeLimit = 1 << 23
	var degrees []int32
	var sparse sparseDegreeTable
	distinct := 0
	bump := func(v int) {
		if v >= denseDegreeLimit || v < 0 {
			sparse.add(v)
			return
		}
		if v >= len(degrees) {
			grown := make([]int32, max(v+1, 2*len(degrees)))
			copy(grown, degrees)
			degrees = grown
		}
		if degrees[v] == 0 {
			distinct++
		}
		degrees[v]++
	}
	m, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
		for _, e := range batch {
			if e.U != e.V {
				bump(e.U)
				bump(e.V)
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.EdgesInStream = m
	if m == 0 {
		res.Passes = counter.Passes()
		return res, nil
	}
	sparse.flush()
	distinct += len(sparse.keys)
	meter.Charge(int64(distinct) * stream.WordsPerCounter)

	theta := cfg.DegreeThreshold
	if theta <= 0 {
		theta = math.Sqrt(2 * float64(m))
	}
	degreeOf := func(v int) int {
		if v >= denseDegreeLimit || v < 0 {
			return sparse.get(v)
		}
		if v >= len(degrees) {
			return 0
		}
		return int(degrees[v])
	}
	edgeDeg := func(e graph.Edge) int {
		du, dv := degreeOf(e.U), degreeOf(e.V)
		if du < dv {
			return du
		}
		return dv
	}

	// ----- Pass 2: heavy-induced subgraph and the uniform edge sample. -----
	r := cfg.SampledEdges
	if r > m {
		r = m
	}
	positions := make([]int, r)
	for i := range positions {
		positions[i] = rng.Intn(m)
	}
	sort.Ints(positions)
	sample := make([]graph.Edge, 0, r)

	heavyBuilder := graph.NewBuilder(0)
	heavyEdges := 0
	pos := 0
	next := 0
	if _, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
		for _, e := range batch {
			e = e.Normalize()
			if float64(degreeOf(e.U)) >= theta && float64(degreeOf(e.V)) >= theta {
				heavyBuilder.AddEdge(e.U, e.V)
				heavyEdges++
			}
			for next < r && positions[next] == pos {
				sample = append(sample, e)
				next++
			}
			pos++
		}
		return nil
	}); err != nil {
		return res, err
	}
	meter.Charge(int64(heavyEdges)*stream.WordsPerEdge + int64(len(sample))*stream.WordsPerEdge)

	// Exact count of triangles attributed to heavy edges: count triangles of
	// the heavy subgraph whose minimum edge degree (in the full graph)
	// reaches θ — by construction of the induced subgraph they all do, since
	// all three endpoints are heavy, hence every edge degree is ≥ θ.
	heavyGraph := heavyBuilder.Build()
	heavyTriangles := heavyGraph.TriangleCount()

	// ----- Pass 3: uniform neighbor of the light endpoint per sampled light edge. -----
	var lights []lightSample
	var lightVerts []int
	for _, e := range sample {
		if e.U == e.V {
			continue // a loop has no wedge
		}
		de := edgeDeg(e)
		if float64(de) >= theta {
			continue // heavy edge: its attributed triangles are counted exactly
		}
		ls := lightSample{edge: e, deg: de}
		if degreeOf(e.U) <= degreeOf(e.V) {
			ls.light, ls.other = e.U, e.V
		} else {
			ls.light, ls.other = e.V, e.U
		}
		lights = append(lights, ls)
		lightVerts = append(lightVerts, ls.light)
	}
	meter.Charge(int64(len(lights)) * 8 * stream.WordsPerScalar)

	if len(lights) > 0 {
		lightGroups := graph.NewVertexGroups(lightVerts)
		if _, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
			for _, e := range batch {
				if e.U == e.V {
					continue
				}
				if lightGroups.MayContain(e.U) {
					for _, idx := range lightGroups.Lookup(e.U) {
						lights[idx].offer(e.V, rng)
					}
				}
				if lightGroups.MayContain(e.V) {
					for _, idx := range lightGroups.Lookup(e.V) {
						lights[idx].offer(e.U, rng)
					}
				}
			}
			return nil
		}); err != nil {
			return res, err
		}

		// ----- Pass 4: closure checks. -----
		var closureKeys []graph.Edge
		var closureItem []int32
		for i := range lights {
			ls := &lights[i]
			if !ls.hasW || ls.w == ls.other {
				ls.hasW = false
				continue
			}
			closureKeys = append(closureKeys, graph.NewEdge(ls.other, ls.w))
			closureItem = append(closureItem, int32(i))
		}
		closure := graph.NewEdgeIndex(closureKeys)
		meter.Charge(int64(closure.Keys()) * (stream.WordsPerEdge + stream.WordsPerScalar))
		if _, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
			for _, e := range batch {
				if closure.MayContain(e) {
					for _, it := range closure.Lookup(e.Normalize()) {
						lights[closureItem[it]].closed = true
					}
				}
			}
			return nil
		}); err != nil {
			return res, err
		}
	}

	// Light contribution: accept a discovered triangle only when the sampled
	// edge is the triangle's attributed (minimum-degree, lexicographically
	// smallest) edge.
	var lightEstimate float64
	found := int(heavyTriangles)
	for i := range lights {
		ls := &lights[i]
		if !ls.closed {
			continue
		}
		found++
		tri := graph.NewTriangle(ls.edge.U, ls.edge.V, ls.w)
		attributed := minDegreeEdge(tri, edgeDeg)
		if attributed == ls.edge {
			lightEstimate += float64(ls.deg) * float64(m) / float64(r)
			res.TrianglesAssigned++
		}
	}

	res.Estimate = lightEstimate + float64(heavyTriangles)
	res.Passes = counter.Passes()
	res.SpaceWords = meter.Peak()
	res.TrianglesFound = found
	res.Instances = len(lights)
	return res, nil
}

// sparseDegreeTable counts occurrences of vertex IDs beyond the dense-slice
// budget without a hash map in the hot loop: adds land in an append buffer
// that is sort-merged into the sorted (keys, counts) arrays whenever it
// fills, so memory is O(distinct + chunk) even when a stream holds millions
// of out-of-range endpoints. Lookups binary-search the sorted keys after a
// final flush.
type sparseDegreeTable struct {
	keys    []int
	counts  []int32
	pending []int
}

// sparsePendingChunk bounds the unsorted buffer between merges.
const sparsePendingChunk = 1 << 16

func (t *sparseDegreeTable) add(v int) {
	t.pending = append(t.pending, v)
	if len(t.pending) >= sparsePendingChunk {
		t.flush()
	}
}

// flush folds the pending occurrences into the sorted arrays (two-pointer
// merge of the run-length-encoded pending batch with the existing table).
func (t *sparseDegreeTable) flush() {
	if len(t.pending) == 0 {
		return
	}
	sort.Ints(t.pending)
	mergedKeys := make([]int, 0, len(t.keys)+len(t.pending))
	mergedCounts := make([]int32, 0, len(t.counts)+len(t.pending))
	i, j := 0, 0
	for i < len(t.keys) || j < len(t.pending) {
		switch {
		case j == len(t.pending) || (i < len(t.keys) && t.keys[i] < t.pending[j]):
			mergedKeys = append(mergedKeys, t.keys[i])
			mergedCounts = append(mergedCounts, t.counts[i])
			i++
		default:
			key := t.pending[j]
			var n int32
			for j < len(t.pending) && t.pending[j] == key {
				n++
				j++
			}
			if i < len(t.keys) && t.keys[i] == key {
				n += t.counts[i]
				i++
			}
			mergedKeys = append(mergedKeys, key)
			mergedCounts = append(mergedCounts, n)
		}
	}
	t.keys, t.counts = mergedKeys, mergedCounts
	t.pending = t.pending[:0]
}

// get returns the count of v. It must only be called after a flush (the
// estimator flushes once at the end of pass 1).
func (t *sparseDegreeTable) get(v int) int {
	if i := graph.FindSorted(t.keys, v); i >= 0 {
		return int(t.counts[i])
	}
	return 0
}

// lightSample is the per-sampled-light-edge state of the HeavyLight
// estimator: a size-1 neighbor reservoir plus the closure outcome.
type lightSample struct {
	edge   graph.Edge
	light  int
	other  int
	deg    int
	seen   int64
	w      int
	hasW   bool
	closed bool
}

func (ls *lightSample) offer(v int, rng *sampling.RNG) {
	ls.seen++
	if rng.Int63n(ls.seen) == 0 {
		ls.w = v
		ls.hasW = true
	}
}

// minDegreeEdge returns the triangle's edge with the minimum edge degree,
// breaking ties lexicographically.
func minDegreeEdge(t graph.Triangle, edgeDeg func(graph.Edge) int) graph.Edge {
	edges := t.Edges()
	best := edges[0]
	bestDeg := edgeDeg(best)
	for _, e := range edges[1:] {
		d := edgeDeg(e)
		if d < bestDeg || (d == bestDeg && (e.U < best.U || (e.U == best.U && e.V < best.V))) {
			best, bestDeg = e, d
		}
	}
	return best
}

func (ls *lightSample) String() string {
	return fmt.Sprintf("lightSample(%v)", ls.edge)
}
