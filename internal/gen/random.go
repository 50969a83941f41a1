package gen

import (
	"fmt"
	"math"
	"slices"

	"degentri/internal/graph"
	"degentri/internal/sampling"
)

// ErdosRenyiGNP returns a G(n, p) random graph: every unordered pair is an
// edge independently with probability p. The construction uses geometric
// skipping so the running time is O(n + m) rather than O(n²).
func ErdosRenyiGNP(n int, p float64, seed uint64) *graph.Graph {
	if n < 0 || p < 0 || p > 1 {
		panic(fmt.Sprintf("gen: bad G(n,p) parameters n=%d p=%v", n, p))
	}
	b := graph.NewBuilder(n)
	if p == 0 || n < 2 {
		return b.Build()
	}
	rng := sampling.NewRNG(seed)
	if p == 1 {
		return Complete(n)
	}
	// Iterate over pair indices 0..C(n,2)-1 with geometric jumps.
	total := int64(n) * int64(n-1) / 2
	idx := int64(-1)
	for {
		idx += rng.Geometric(p)
		if idx >= total {
			break
		}
		u, v := pairFromIndex(idx, n)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// pairFromIndex maps a linear index in [0, C(n,2)) to the corresponding
// unordered pair (u, v) with u < v, enumerating pairs row by row.
func pairFromIndex(idx int64, n int) (int, int) {
	u := 0
	remainingInRow := int64(n - 1)
	for idx >= remainingInRow {
		idx -= remainingInRow
		u++
		remainingInRow = int64(n - 1 - u)
	}
	v := u + 1 + int(idx)
	return u, v
}

// ErdosRenyiGNM returns a G(n, m) random graph with exactly m distinct edges
// chosen uniformly among all pairs. It panics if m exceeds C(n,2).
func ErdosRenyiGNM(n, m int, seed uint64) *graph.Graph {
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		panic(fmt.Sprintf("gen: G(n,m) with m=%d > C(%d,2)=%d", m, n, maxEdges))
	}
	rng := sampling.NewRNG(seed)
	b := graph.NewBuilder(n)
	// Track distinctness here instead of polling b.NumEdges() per draw: the
	// builder dedups lazily (sort+compact), so NumEdges in a tight loop
	// would re-sort the accumulated edges every iteration.
	seen := make(map[graph.Edge]struct{}, m)
	for len(seen) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			e := graph.NewEdge(u, v)
			if _, ok := seen[e]; !ok {
				seen[e] = struct{}{}
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// BarabasiAlbert returns a preferential-attachment graph: starting from a
// clique on k+1 vertices, each new vertex attaches to k distinct existing
// vertices chosen with probability proportional to their current degree.
// The degeneracy is exactly k (every vertex added after the seed clique has
// back-degree k, and the seed clique K_{k+1} has degeneracy k), making the
// family the paper's canonical "constant degeneracy, many triangles" class.
func BarabasiAlbert(n, k int, seed uint64) *graph.Graph {
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("gen: Barabási–Albert needs n >= k+1 >= 2, got n=%d k=%d", n, k))
	}
	rng := sampling.NewRNG(seed)
	b := graph.NewBuilder(n)
	// Repeated-endpoint list: vertex v appears once per incident edge, so a
	// uniform draw from the list is a degree-proportional draw.
	var endpoints []int
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			b.AddEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	// Targets are collected in draw order (k is small, so the dedup is a
	// linear scan): iterating a set here would feed map iteration order back
	// into the endpoint list and make the generated graph nondeterministic
	// for a fixed seed.
	targets := make([]int, 0, k)
	for v := k + 1; v < n; v++ {
		targets = targets[:0]
		for len(targets) < k {
			t := endpoints[rng.Intn(len(endpoints))]
			if !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddEdge(v, t)
			endpoints = append(endpoints, v, t)
		}
	}
	return b.Build()
}

// ChungLu returns a random graph with a power-law expected degree sequence
// (exponent beta > 2, target average degree avgDeg), using the efficient
// Miller–Hagberg construction with geometric skipping. Real-world social and
// web graphs motivating the paper are commonly modeled this way: heavy-tailed
// degrees, small degeneracy, and many triangles.
func ChungLu(n int, avgDeg, beta float64, seed uint64) *graph.Graph {
	if n < 2 || avgDeg <= 0 || beta <= 2 {
		panic(fmt.Sprintf("gen: bad Chung–Lu parameters n=%d avgDeg=%v beta=%v", n, avgDeg, beta))
	}
	rng := sampling.NewRNG(seed)
	// Power-law weights, largest first: w_i = c·(i+1)^{-1/(beta-1)}, scaled so
	// that the average weight is avgDeg.
	w := make([]float64, n)
	exp := -1.0 / (beta - 1)
	var sum float64
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i+1), exp)
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	var total float64
	for i := range w {
		w[i] *= scale
		total += w[i]
	}
	// Cap weights at sqrt(total) so pair probabilities stay <= 1.
	cap_ := math.Sqrt(total)
	for i := range w {
		if w[i] > cap_ {
			w[i] = cap_
		}
	}

	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		j := i + 1
		p := math.Min(1, w[i]*w[j]/total)
		for j < n && p > 0 {
			if p < 1 {
				skip := int64(math.Floor(math.Log(rng.Float64Open()) / math.Log(1-p)))
				if skip > int64(n) {
					skip = int64(n)
				}
				j += int(skip)
			}
			if j < n {
				q := math.Min(1, w[i]*w[j]/total)
				if rng.Float64() < q/p {
					b.AddEdge(i, j)
				}
				p = q
				j++
			}
		}
	}
	return b.Build()
}

// PlantedBook returns a sparse base graph (G(n, m) with the given seed) with
// an additional book of `pages` triangles planted on the edge {0,1}. It is
// used by variance-stress experiments: most triangles concentrate on one
// edge while the rest of the graph supplies "noise" edges.
func PlantedBook(n, m, pages int, seed uint64) *graph.Graph {
	base := ErdosRenyiGNM(n, m, seed)
	b := graph.NewBuilder(n)
	b.AddEdges(base.Edges())
	if n < pages+2 {
		panic("gen: PlantedBook needs n >= pages+2")
	}
	b.AddEdge(0, 1)
	for i := 0; i < pages; i++ {
		apex := 2 + i
		b.AddEdge(0, apex)
		b.AddEdge(1, apex)
	}
	return b.Build()
}

// StarPlusTriangles returns a graph with a large star (hub 0, `leaves`
// leaves) plus `tris` disjoint triangles on separate vertices. It has
// maximum degree `leaves`, degeneracy 2, and exactly `tris` triangles —
// a family where ∆-parameterized one-pass algorithms (space m∆/T) are far
// worse than the degeneracy bound mκ/T.
func StarPlusTriangles(leaves, tris int) *graph.Graph {
	if leaves < 1 || tris < 1 {
		panic("gen: StarPlusTriangles needs positive parameters")
	}
	n := 1 + leaves + 3*tris
	b := graph.NewBuilder(n)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, v)
	}
	base := 1 + leaves
	for t := 0; t < tris; t++ {
		a, bb, c := base+3*t, base+3*t+1, base+3*t+2
		b.AddEdge(a, bb)
		b.AddEdge(bb, c)
		b.AddEdge(a, c)
	}
	return b.Build()
}
