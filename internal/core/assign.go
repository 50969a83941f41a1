package core

import (
	"math"

	"degentri/internal/graph"
	"degentri/internal/passes"
	"degentri/internal/stream"
)

// assignmentTable is the outcome of the assignment procedure: for every
// distinct discovered triangle (id'd by the TriangleIndex) the edge it was
// assigned to, or unassigned (⊥). It replaces the map[graph.Triangle]Edge of
// the map-based implementation with a sorted packed-key table whose iteration
// and lookup order are deterministic.
type assignmentTable struct {
	idx   *graph.TriangleIndex
	edges []graph.Edge
	set   *graph.Bitset
}

// lookup returns the edge assigned to the triangle and whether it is
// assigned.
func (t *assignmentTable) lookup(tri graph.Triangle) (graph.Edge, bool) {
	if t == nil || t.idx == nil {
		return graph.Edge{}, false
	}
	i := t.idx.Lookup(tri)
	if i < 0 || !t.set.Test(i) {
		return graph.Edge{}, false
	}
	return t.edges[i], true
}

// assigned returns how many triangles are assigned.
func (t *assignmentTable) assigned() int {
	if t == nil || t.set == nil {
		return 0
	}
	return t.set.Count()
}

// triState is the per-triangle state of the assignment procedure
// (Algorithm 3). Each of the three edge slots draws its own neighborhood
// sample of size s in pass 5.
type triState struct {
	tri    graph.Triangle
	edges  [3]graph.Edge
	light  [3]int
	other  [3]int
	deg    [3]int  // d_f = min endpoint degree of the slot's edge
	skip   [3]bool // true when d_f exceeds the heavy-degree threshold (line 9)
	closed [3]int  // how many of the s samples closed a triangle (pass 6)
	ye     [3]float64
}

// assign runs the triangle-to-edge assignment phase and returns, for every
// distinct triangle discovered by the instances, the edge it is assigned to.
// Triangles left unassigned (Algorithm 3 returning ⊥) have no table entry.
//
// RuleNone needs no assignment and returns an empty table without extra
// passes. RuleLowestDegree assigns to the minimum-degree edge using degrees
// already measured in passes 2 and 4, also without extra passes.
// RuleLowestCount is the paper's rule and performs passes 5 and 6.
//
// The distinct triangles are numbered by graph.TriangleIndex (sorted triple
// order) and all per-slot randomness is keyed by (Config.Seed, slot id,
// shard), so both passes run on the sharded engine and the assignment — and
// with it the estimate — is deterministic at any worker count.
func (est *Estimator) assign(
	x passes.Executor,
	res *Result,
	instances []instance,
	degreeOf func(int) (int, bool),
) (*assignmentTable, error) {
	m := x.M()
	cfg := est.cfg
	if cfg.Rule == RuleNone {
		return &assignmentTable{}, nil
	}

	// Deduplicate the discovered triangles: the memo table of Section 5.1,
	// which also guarantees that repeated IsAssigned calls are consistent.
	// The TriangleIndex numbers the distinct triangles in sorted triple
	// order; state si describes triangle id si.
	tris := make([]graph.Triangle, 0, res.TrianglesFound)
	for i := range instances {
		if instances[i].closed {
			tris = append(tris, instances[i].tri)
		}
	}
	triIdx := graph.NewTriangleIndex(tris)
	res.DistinctTriangles = triIdx.Len()
	table := &assignmentTable{
		idx:   triIdx,
		edges: make([]graph.Edge, triIdx.Len()),
		set:   graph.NewBitset(triIdx.Len()),
	}
	if triIdx.Len() == 0 {
		return table, nil
	}

	states := make([]triState, triIdx.Len())
	for si := range states {
		st := &states[si]
		st.tri = triIdx.TriangleAt(si)
		st.edges = st.tri.Edges()
		for slot, f := range st.edges {
			fu, fv := int(f.U), int(f.V)
			du, okU := degreeOf(fu)
			dv, okV := degreeOf(fv)
			if !okU || !okV {
				// Should not happen: every triangle vertex is either an R
				// endpoint (pass 2) or an apex (pass 4). Treat as skip so the
				// run degrades gracefully instead of crashing.
				st.skip[slot] = true
				st.ye[slot] = math.Inf(1)
				continue
			}
			de := du
			if dv < de {
				de = dv
			}
			st.deg[slot] = de
			if du <= dv {
				st.light[slot], st.other[slot] = fu, fv
			} else {
				st.light[slot], st.other[slot] = fv, fu
			}
		}
	}

	if cfg.Rule == RuleLowestDegree {
		for si := range states {
			st := &states[si]
			best := -1
			for slot := range st.edges {
				if st.skip[slot] {
					continue
				}
				if best < 0 || st.deg[slot] < st.deg[best] ||
					(st.deg[slot] == st.deg[best] && lessEdge(st.edges[slot], st.edges[best])) {
					best = slot
				}
			}
			if best >= 0 {
				table.edges[si] = st.edges[best]
				table.set.Set(si)
			}
		}
		est.meter.Charge(int64(table.assigned()) * 2 * stream.WordsPerEdge)
		return table, nil
	}

	// RuleLowestCount: the full Algorithm 3.
	s := cfg.sampleSizeS(m)
	res.AssignmentSamples = s
	heavyThreshold := cfg.heavyEdgeDegreeThreshold(m)
	cutoff := cfg.assignmentCutoff()

	// Active (state, slot) pairs grouped by the slot's light endpoint. Slot
	// IDs are state-index*3+slot; the dense index into slotIDs keys the
	// slot's RNG streams.
	var slotLights []int
	var slotIDs []int32
	for si := range states {
		st := &states[si]
		for slot := range st.edges {
			if st.skip[slot] {
				continue
			}
			if float64(st.deg[slot]) > heavyThreshold {
				// Line 9 of Algorithm 3: the edge is too expensive to probe.
				st.skip[slot] = true
				st.ye[slot] = math.Inf(1)
				continue
			}
			slotLights = append(slotLights, st.light[slot])
			slotIDs = append(slotIDs, int32(si*3+slot))
		}
		est.meter.Charge(int64(3*(s+8)) * stream.WordsPerScalar)
	}
	if est.overBudget() {
		res.Aborted = true
		return table, nil
	}

	if len(slotIDs) > 0 {
		lightGroups := graph.NewVertexGroups(slotLights)

		// ----- Pass 5: s uniform neighborhood samples per active slot. -----
		banks, err := passes.SampleNeighborBanks(
			x, lightGroups, len(slotIDs), s,
			cfg.Seed, rngKeyPass5, rngKeyPass5Merge)
		if err != nil {
			return table, err
		}

		// ----- Pass 6: closure checks for all drawn samples. -----
		// Each distinct sampled neighbor w of a slot implies one closing edge
		// (other, w), hit as often as the bank drew w. A neighbor that is
		// negative or is the slot's other endpoint closes nothing.
		type hit struct {
			id    int32 // state-index*3+slot
			count int32
		}
		var hitKeys []graph.Edge
		var hits []hit
		for j, id := range slotIDs {
			other := states[id/3].other[id%3]
			for i, w := range banks[j].W {
				if w >= 0 && w != other {
					hitKeys = append(hitKeys, graph.NewEdge(other, w))
					hits = append(hits, hit{id: id, count: int32(banks[j].C[i])})
				}
			}
		}
		closure := graph.NewEdgeIndex(hitKeys)
		est.meter.Charge(int64(closure.Keys()) * (stream.WordsPerEdge + 2*stream.WordsPerScalar))
		if est.overBudget() {
			res.Aborted = true
			return table, nil
		}
		matches, err := passes.ClosureCounts(x, closure, len(hits))
		if err != nil {
			return table, err
		}
		for it, h := range hits {
			states[h.id/3].closed[h.id%3] += int(h.count) * matches[it]
		}
	}

	// Line 16–21: estimate Ye per slot and pick the minimizer.
	for si := range states {
		st := &states[si]
		for slot := range st.edges {
			if st.skip[slot] {
				st.ye[slot] = math.Inf(1)
				continue
			}
			st.ye[slot] = float64(st.deg[slot]) * float64(st.closed[slot]) / float64(s)
		}
		best := 0
		for slot := 1; slot < 3; slot++ {
			if st.ye[slot] < st.ye[best] ||
				(st.ye[slot] == st.ye[best] && lessEdge(st.edges[slot], st.edges[best])) {
				best = slot
			}
		}
		if math.IsInf(st.ye[best], 1) || st.ye[best] > cutoff {
			continue // unassigned (⊥)
		}
		table.edges[si] = st.edges[best]
		table.set.Set(si)
	}
	est.meter.Charge(int64(table.assigned()) * 2 * stream.WordsPerEdge)
	return table, nil
}
