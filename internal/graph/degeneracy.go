package graph

// CoreDecomposition is the result of the classic bucket-queue peeling
// procedure (Matula–Beck). It exposes the degeneracy κ(G), per-vertex core
// numbers, and a degeneracy ordering of the vertices.
type CoreDecomposition struct {
	// Degeneracy is κ(G) = max over subgraphs of the minimum degree, equal to
	// the maximum core number and to the maximum "observed degree at removal"
	// during minimum-degree peeling.
	Degeneracy int
	// Core[v] is the core number of vertex v: the largest k such that v
	// belongs to a subgraph with minimum degree >= k.
	Core []int
	// Order is a degeneracy ordering: vertices in the order they were peeled
	// (non-decreasing observed degree). Every vertex has at most Degeneracy
	// neighbors appearing later in Order.
	Order []int
	// Position[v] is the index of v in Order.
	Position []int
}

// Degeneracy returns κ(G) without retaining the full decomposition.
func (g *Graph) Degeneracy() int {
	return g.CoreDecomposition().Degeneracy
}

// CoreDecomposition computes core numbers, the degeneracy, and a degeneracy
// ordering in O(n + m) time using bucket queues.
func (g *Graph) CoreDecomposition() *CoreDecomposition {
	n := g.n
	cd := &CoreDecomposition{
		Core:     make([]int, n),
		Order:    make([]int, 0, n),
		Position: make([]int, n),
	}
	if n == 0 {
		return cd
	}

	deg := g.Degrees()
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}

	// Batagelj–Zaveršnik bucket-queue peeling.
	// bin[d] = starting index in vert of the bucket of vertices whose current
	// degree is d; vert holds vertices sorted by current degree; pos[v] is the
	// index of v in vert.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	startIdx := 0
	for d := 0; d <= maxDeg; d++ {
		size := bin[d]
		bin[d] = startIdx
		startIdx += size
	}
	vert := make([]int, n)
	pos := make([]int, n)
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = v
		bin[deg[v]]++
	}
	// Restore bin to bucket start positions.
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	degeneracy := 0
	for i := 0; i < n; i++ {
		v := vert[i]
		if deg[v] > degeneracy {
			degeneracy = deg[v]
		}
		cd.Core[v] = deg[v]
		cd.Position[v] = len(cd.Order)
		cd.Order = append(cd.Order, v)

		for _, u := range g.Neighbors(v) {
			if deg[u] <= deg[v] {
				continue
			}
			du, pu := deg[u], pos[u]
			pw := bin[du]
			w := vert[pw]
			if u != w {
				vert[pw], vert[pu] = u, w
				pos[u], pos[w] = pw, pu
			}
			bin[du]++
			deg[u] = du - 1
		}
	}
	cd.Degeneracy = degeneracy
	return cd
}

// DegeneracyOrientation returns, for each vertex, its out-neighbors when
// every edge is oriented from the earlier to the later vertex in a degeneracy
// ordering. Every vertex has out-degree at most κ(G). The orientation is the
// basis of O(mκ)-time exact triangle counting.
func (g *Graph) DegeneracyOrientation() (out [][]int, cd *CoreDecomposition) {
	cd = g.CoreDecomposition()
	out = make([][]int, g.n)
	for v := 0; v < g.n; v++ {
		for _, w := range g.Neighbors(v) {
			if cd.Position[v] < cd.Position[w] {
				out[v] = append(out[v], w)
			}
		}
	}
	return out, cd
}

// ArboricityUpperBound returns κ(G), which upper-bounds the arboricity α(G)
// only up to the relation α ≤ κ ≤ 2α−1; the returned value is the degeneracy
// itself, the parameter all bounds in this repository are stated in.
//
// ArboricityLowerBound returns the standard density lower bound
// ⌈max_{S⊆V, |S|≥2} m(S)/(|S|−1)⌉ restricted to the whole graph, i.e.
// ⌈m/(n−1)⌉, which is a cheap certified lower bound on the arboricity.
func (g *Graph) ArboricityUpperBound() int { return g.Degeneracy() }

// ArboricityLowerBound returns ⌈m/(n−1)⌉ (0 for graphs with fewer than two
// vertices), a lower bound on the arboricity and hence on the degeneracy.
func (g *Graph) ArboricityLowerBound() int {
	if g.n < 2 || g.NumEdges() == 0 {
		return 0
	}
	m := g.NumEdges()
	return (m + g.n - 2) / (g.n - 1)
}
