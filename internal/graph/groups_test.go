package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestFindSorted(t *testing.T) {
	a := []int{2, 5, 9, 11, 40}
	for i, v := range a {
		if got := FindSorted(a, v); got != i {
			t.Errorf("FindSorted(%d) = %d, want %d", v, got, i)
		}
	}
	for _, v := range []int{-3, 0, 3, 10, 41} {
		if got := FindSorted(a, v); got != -1 {
			t.Errorf("FindSorted(%d) = %d, want -1", v, got)
		}
	}
	if FindSorted(nil, 1) != -1 {
		t.Error("FindSorted on empty slice should return -1")
	}
}

// sortedCounterKeys returns dense, word-boundary and sparse key sets: the
// sparse one forces the binary-search fallback (no rank-set).
func sortedCounterKeys() map[string][]int {
	sparse := []int{0, 7, rankTableLimit + 5, rankTableLimit * 3}
	dense := []int{5, 1, 9, 5, 3, 1}
	return map[string][]int{
		"dense":      dense,
		"sparse":     sparse,
		"word63":     {63},
		"word64":     {64},
		"boundaries": {0, 63, 64, 127, 128},
	}
}

func TestSortedCounter(t *testing.T) {
	for name, keys := range sortedCounterKeys() {
		orig := slices.Clone(keys)
		c := NewSortedCounter(slices.Clone(keys))
		distinct := slices.Clone(orig)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		if c.Len() != len(distinct) {
			t.Fatalf("%s: Len = %d, want %d", name, c.Len(), len(distinct))
		}
		for _, v := range distinct {
			c.Inc(v)
			c.Inc(v)
		}
		c.Inc(distinct[len(distinct)-1] + 1) // untracked: no-op
		c.Inc(-1)                            // untracked: no-op
		for _, v := range distinct {
			if n, ok := c.Get(v); !ok || n != 2 {
				t.Errorf("%s: Get(%d) = %d,%v, want 2,true", name, v, n, ok)
			}
		}
		if _, ok := c.Get(distinct[0] - 1); ok {
			t.Errorf("%s: Get of untracked key reported ok", name)
		}
	}
}

func TestVertexGroupsOrderAndLookup(t *testing.T) {
	// Items grouped per vertex must keep insertion order.
	vertexOf := []int{4, 2, 4, 9, 2, 4}
	g := NewVertexGroups(vertexOf)
	if g.Groups() != 3 {
		t.Fatalf("Groups = %d, want 3", g.Groups())
	}
	want := map[int][]int32{
		2: {1, 4},
		4: {0, 2, 5},
		9: {3},
	}
	for v, items := range want {
		if got := g.Lookup(v); !slices.Equal(got, items) {
			t.Errorf("Lookup(%d) = %v, want %v", v, got, items)
		}
	}
	for _, v := range []int{-1, 0, 3, 10} {
		if g.Lookup(v) != nil {
			t.Errorf("Lookup(%d) should be nil", v)
		}
	}
}

func TestVertexGroupsSparseFallback(t *testing.T) {
	big := rankTableLimit + 17
	g := NewVertexGroups([]int{big, 3, big})
	if !slices.Equal(g.Lookup(big), []int32{0, 2}) || !slices.Equal(g.Lookup(3), []int32{1}) {
		t.Error("sparse VertexGroups lookups wrong")
	}
	if g.Lookup(big-1) != nil {
		t.Error("sparse VertexGroups miss should be nil")
	}
}

func TestEdgeIndex(t *testing.T) {
	edges := []Edge{
		NewEdge(3, 1), // item 0, key (1,3)
		NewEdge(0, 2), // item 1
		NewEdge(1, 3), // item 2, same key as item 0
		{U: 9, V: 4},  // item 3, unnormalized input
	}
	ix := NewEdgeIndex(edges)
	if ix.Keys() != 3 {
		t.Fatalf("Keys = %d, want 3", ix.Keys())
	}
	if got := ix.Lookup(NewEdge(1, 3)); !slices.Equal(got, []int32{0, 2}) {
		t.Errorf("Lookup(1,3) = %v, want [0 2]", got)
	}
	if got := ix.Lookup(NewEdge(4, 9)); !slices.Equal(got, []int32{3}) {
		t.Errorf("Lookup(4,9) = %v, want [3]", got)
	}
	for _, e := range []Edge{NewEdge(0, 1), NewEdge(2, 3), {U: -1, V: 5}} {
		if ix.Lookup(e) != nil {
			t.Errorf("Lookup(%v) should be nil", e)
		}
	}
	if NewEdgeIndex(nil).Lookup(NewEdge(0, 1)) != nil {
		t.Error("empty index lookup should be nil")
	}
}

func TestEdgeIndexUnpackableFallback(t *testing.T) {
	huge := int(1) << 40
	edges := []Edge{NewEdge(huge, 1), NewEdge(0, 2)}
	ix := NewEdgeIndex(edges)
	if got := ix.Lookup(NewEdge(1, huge)); !slices.Equal(got, []int32{0}) {
		t.Errorf("Lookup(huge edge) = %v, want [0]", got)
	}
	if got := ix.Lookup(NewEdge(0, 2)); !slices.Equal(got, []int32{1}) {
		t.Errorf("Lookup(0,2) = %v, want [1]", got)
	}
	if ix.Lookup(NewEdge(1, 2)) != nil {
		t.Error("miss should be nil")
	}
}

// randomVertices returns n vertices drawn from [lo, lo+span), with repeats.
func randomVertices(rng *rand.Rand, n, lo, span int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = lo + rng.Intn(span)
	}
	return vs
}

// probeRange appends every v in [lo, hi] to probes.
func probeRange(probes []int, lo, hi int) []int {
	for v := lo; v <= hi; v++ {
		probes = append(probes, v)
	}
	return probes
}

// TestVertexLookupsMatchMap cross-checks SortedCounter, VertexGroups and
// their MayContain against map references on random key sets, probing every
// ID from -2 to 130 past the largest key. A filter that dropped a key would
// silently lose sample hits and bias every estimate.
func TestVertexLookupsMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dense := randomVertices(rng, 3000, 0, 5000)
	small := randomVertices(rng, 66, 0, 5000)
	// The sparse set mixes small keys with keys at and past rankTableLimit.
	sparse := append(randomVertices(rng, 40, 0, 200), randomVertices(rng, 400, rankTableLimit, 5000)...)
	sparse = append(sparse, rankTableLimit)
	cases := []struct {
		name     string
		vertexOf []int
		probes   []int
		exact    bool // the structures have a bitset, so MayContain is exact
	}{
		{"dense", dense, probeRange(nil, -2, slices.Max(dense)+130), true},
		{"small", small, probeRange(nil, -2, slices.Max(small)+130), true},
		// Between its two windows the sparse set holds no key, and every ID
		// there takes the same binary-search path as the windows' misses.
		{"sparse", sparse, probeRange(probeRange(nil, -2, 330), rankTableLimit-130, slices.Max(sparse)+130), false},
	}
	for _, tc := range cases {
		want := map[int][]int32{}
		for i, v := range tc.vertexOf {
			want[v] = append(want[v], int32(i))
		}
		c := NewSortedCounter(slices.Clone(tc.vertexOf))
		g := NewVertexGroups(tc.vertexOf)
		if c.Len() != len(want) || g.Groups() != len(want) {
			t.Fatalf("%s: Len = %d, Groups = %d, want %d", tc.name, c.Len(), g.Groups(), len(want))
		}
		// Every probe goes through Inc once unguarded and once behind
		// MayContain, as the pass loops call it: a key counts 2.
		for _, v := range tc.probes {
			c.Inc(v)
			if c.MayContain(v) {
				c.Inc(v)
			}
		}
		for _, v := range tc.probes {
			items, key := want[v]
			if c.MayContain(v) != key && (key || tc.exact) {
				t.Fatalf("%s: SortedCounter.MayContain(%d) = %v, key %v", tc.name, v, !key, key)
			}
			if g.MayContain(v) != key && (key || tc.exact) {
				t.Fatalf("%s: VertexGroups.MayContain(%d) = %v, key %v", tc.name, v, !key, key)
			}
			wantCount := 0
			if key {
				wantCount = 2
			}
			if n, ok := c.Get(v); n != wantCount || ok != key {
				t.Fatalf("%s: Get(%d) = %d,%v, want %d,%v", tc.name, v, n, ok, wantCount, key)
			}
			if got := g.Lookup(v); !slices.Equal(got, items) || (got == nil) != !key {
				t.Fatalf("%s: Lookup(%d) = %v, want %v", tc.name, v, got, items)
			}
		}
	}
}

// TestEdgeIndexMatchesMap cross-checks EdgeIndex and its smaller-endpoint
// filter against a map reference on random keys, probing every edge (u, v)
// with both endpoints in the probe IDs, in both orientations.
func TestEdgeIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// randomEdges draws each endpoint from [lo[k], lo[k]+span[k]) for a
	// random k.
	randomEdges := func(n int, lo, span []int) []Edge {
		id := func() int {
			k := rng.Intn(len(lo))
			return lo[k] + rng.Intn(span[k])
		}
		es := make([]Edge, n)
		for i := range es {
			es[i] = Edge{U: id(), V: id()}
		}
		return es
	}
	huge := int(1) << 40
	// Keys over 300 IDs share smaller endpoints, and most probes whose
	// smaller endpoint starts a key hit no key.
	dense := randomEdges(1500, []int{0}, []int{300})
	// Sparse: smaller endpoints at and past rankTableLimit, so the keys pack
	// but have no filter.
	sparse := randomEdges(600, []int{0, rankTableLimit}, []int{200, 300})
	// Unpackable: an endpoint past 32 bits forces the sorted-Edge fallback.
	unpackable := append(randomEdges(300, []int{0}, []int{200}), NewEdge(5, huge), NewEdge(huge, huge+1))
	cases := []struct {
		name   string
		keys   []Edge
		probes []int
		exact  bool // the index has a filter, so MayContain is exact
	}{
		{"dense", dense, probeRange(nil, -2, 300+130), true},
		{"sparse", sparse, probeRange(probeRange(nil, -2, 330), rankTableLimit-130, rankTableLimit+300+130), false},
		{"unpackable", unpackable, append(probeRange(nil, -2, 330), huge-1, huge, huge+1, huge+2), false},
	}
	for _, tc := range cases {
		want := map[Edge][]int32{}
		lows := map[int]bool{}
		for i, e := range tc.keys {
			n := e.Normalize()
			want[n] = append(want[n], int32(i))
			lows[n.U] = true
		}
		ix := NewEdgeIndex(tc.keys)
		if ix.Keys() != len(want) {
			t.Fatalf("%s: Keys = %d, want %d", tc.name, ix.Keys(), len(want))
		}
		var sharedMisses int
		for _, u := range tc.probes {
			for _, v := range tc.probes {
				e := Edge{U: u, V: v}
				items, key := want[e.Normalize()]
				if got := ix.Lookup(e.Normalize()); !slices.Equal(got, items) || (got == nil) != !key {
					t.Fatalf("%s: Lookup(%v) = %v, want %v", tc.name, e, got, items)
				}
				mayContain := lows[min(u, v)]
				if ix.MayContain(e) != mayContain && (key || tc.exact) {
					t.Fatalf("%s: MayContain(%v) = %v, key %v, smaller endpoint starts a key %v",
						tc.name, e, !mayContain, key, mayContain)
				}
				if mayContain && !key {
					sharedMisses++
				}
			}
		}
		if sharedMisses == 0 {
			t.Fatalf("%s: no probe shares a key's smaller endpoint without being a key", tc.name)
		}
	}
}
