package core

import (
	"fmt"

	"degentri/internal/graph"
	"degentri/internal/sampling"
	"degentri/internal/stream"
)

// DegreeOracle answers vertex degree queries, the abstract primitive of the
// Section 4 warm-up model. Implementations must answer consistently with the
// streamed graph.
type DegreeOracle interface {
	Degree(v int) int
}

// GraphOracle is a DegreeOracle backed by a fully materialized graph. It also
// counts how many queries were issued, because the warm-up analysis reports
// the query count (2m for Algorithm 1).
type GraphOracle struct {
	g       *graph.Graph
	queries int64
}

// NewGraphOracle wraps a graph as a degree oracle.
func NewGraphOracle(g *graph.Graph) *GraphOracle { return &GraphOracle{g: g} }

// Degree implements DegreeOracle.
func (o *GraphOracle) Degree(v int) int {
	o.queries++
	if v < 0 || v >= o.g.NumVertices() {
		return 0
	}
	return o.g.Degree(v)
}

// Queries returns the number of degree queries answered so far.
func (o *GraphOracle) Queries() int64 { return o.queries }

// idealInstance is the state of one parallel copy of Algorithm 1.
type idealInstance struct {
	reservoir *sampling.WeightedSingleReservoir[graph.Edge]
	edge      graph.Edge
	edgeDeg   int
	light     int
	other     int
	neighbor  sampling.SingleReservoir[int]
	w         int
	hasW      bool
	closed    bool
	y         bool
}

// IdealEstimator runs Algorithm 1: k parallel estimator copies, each sampling
// an edge with probability proportional to d_e using the degree oracle, then
// a uniform neighbor of the light endpoint, then a closure check, then the
// assignment filter. It makes three stream passes and 2m + O(k) oracle
// queries. The returned estimate is the (median-of-means over Config.Groups)
// average of d_E·Y_i. A self-loop has no wedge: it adds no sampling weight
// and offers no neighbor, the rule of the sharded passes.
func IdealEstimator(src stream.Stream, oracle DegreeOracle, cfg Config, k int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if k < 1 {
		return Result{}, fmt.Errorf("core: ideal estimator needs k >= 1, got %d", k)
	}
	rng := sampling.NewRNG(cfg.Seed)
	meter := stream.NewSharedMeter(nil)
	counter := stream.NewPassCounter(src)

	res := Result{Instances: k}
	baseQueries := oracleQueryCount(oracle)

	// Pass 1: degree-proportional edge sampling into k weighted reservoirs.
	instances := make([]*idealInstance, k)
	for i := range instances {
		instances[i] = &idealInstance{
			reservoir: sampling.NewWeightedSingleReservoir[graph.Edge](rng.Split()),
			neighbor:  *sampling.NewSingleReservoir[int](rng.Split()),
		}
	}
	meter.Charge(int64(k) * (stream.WordsPerEdge + 4*stream.WordsPerScalar))

	var dE int64
	m, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
		for _, e := range batch {
			if e.U == e.V {
				continue
			}
			du, dv := oracle.Degree(int(e.U)), oracle.Degree(int(e.V))
			de := du
			if dv < du {
				de = dv
			}
			dE += int64(de)
			for _, inst := range instances {
				inst.reservoir.Offer(e, float64(de))
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.EdgesInStream = m

	// Fix each instance's sampled edge and light endpoint. Instances are
	// grouped by light endpoint for the per-edge lookups of pass 2.
	var active []int32
	var lightVerts []int
	for i, inst := range instances {
		e, ok := inst.reservoir.Value()
		if !ok {
			continue // empty stream or all-zero degrees
		}
		inst.edge = e
		u, v := int(e.U), int(e.V)
		du, dv := oracle.Degree(u), oracle.Degree(v)
		if du <= dv {
			inst.light, inst.other, inst.edgeDeg = u, v, du
		} else {
			inst.light, inst.other, inst.edgeDeg = v, u, dv
		}
		active = append(active, int32(i))
		lightVerts = append(lightVerts, inst.light)
	}
	lightGroups := graph.NewVertexGroups(lightVerts)

	// Pass 2: uniform neighbor of the light endpoint, per instance.
	if _, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
		for _, e := range batch {
			u, v := int(e.U), int(e.V)
			if u == v {
				continue
			}
			if lightGroups.MayContain(u) {
				for _, idx := range lightGroups.Lookup(u) {
					instances[active[idx]].neighbor.Offer(v)
				}
			}
			if lightGroups.MayContain(v) {
				for _, idx := range lightGroups.Lookup(v) {
					instances[active[idx]].neighbor.Offer(u)
				}
			}
		}
		return nil
	}); err != nil {
		return res, err
	}

	// Pass 3: closure checks.
	var closureKeys []graph.Edge
	var closureInst []int32
	for i, inst := range instances {
		w, ok := inst.neighbor.Value()
		if !ok || w == inst.other {
			continue
		}
		inst.w, inst.hasW = w, true
		closureKeys = append(closureKeys, graph.NewEdge(inst.other, w))
		closureInst = append(closureInst, int32(i))
	}
	closure := graph.NewEdgeIndex(closureKeys)
	meter.Charge(int64(closure.Keys()) * (stream.WordsPerEdge + stream.WordsPerScalar))
	if _, err := stream.ForEachBatch(counter, func(batch []graph.Edge) error {
		for _, e := range batch {
			if closure.MayContain(e) {
				for _, it := range closure.Lookup(e.Normalize()) {
					instances[closureInst[it]].closed = true
				}
			}
		}
		return nil
	}); err != nil {
		return res, err
	}

	// Assignment filter (no extra passes in the oracle model).
	values := make([]float64, 0, k)
	for _, inst := range instances {
		y := 0.0
		if inst.closed && inst.hasW {
			res.TrianglesFound++
			tri := graph.NewTriangle(int(inst.edge.U), int(inst.edge.V), inst.w)
			switch cfg.Rule {
			case RuleNone:
				inst.y = true
			case RuleLowestDegree, RuleLowestCount:
				inst.y = lowestDegreeEdge(tri, oracle) == inst.edge.Normalize()
			}
			if inst.y {
				res.TrianglesAssigned++
				y = 1
			}
		}
		values = append(values, float64(dE)*y)
	}
	estimate := sampling.MedianOfMeans(values, cfg.Groups)
	if cfg.Rule == RuleNone {
		estimate /= 3
	}

	res.Estimate = estimate
	res.Passes = counter.Passes()
	res.SpaceWords = meter.Peak()
	res.OracleQueries = oracleQueryCount(oracle) - baseQueries
	return res, nil
}

// lowestDegreeEdge returns the edge of the triangle whose smaller endpoint
// degree is minimal, breaking ties by lexicographic edge order so that the
// assignment is consistent across invocations.
func lowestDegreeEdge(t graph.Triangle, oracle DegreeOracle) graph.Edge {
	best := graph.Edge{U: -1, V: -1}
	bestDeg := int(^uint(0) >> 1)
	for _, e := range t.Edges() {
		du, dv := oracle.Degree(int(e.U)), oracle.Degree(int(e.V))
		de := du
		if dv < du {
			de = dv
		}
		if de < bestDeg || (de == bestDeg && lessEdge(e, best)) {
			best, bestDeg = e, de
		}
	}
	return best
}

func lessEdge(a, b graph.Edge) bool {
	if b.U < 0 {
		return true
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

func oracleQueryCount(o DegreeOracle) int64 {
	if go_, ok := o.(*GraphOracle); ok {
		return go_.Queries()
	}
	return 0
}
