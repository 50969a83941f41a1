package graph

import (
	"testing"
)

func TestSortedCounterForkMerge(t *testing.T) {
	base := NewSortedCounter([]int{5, 1, 9, 1, 5})
	a, b := base.Fork(), base.Fork()
	a.Inc(1)
	a.Inc(5)
	b.Inc(5)
	b.Inc(9)
	b.Inc(9)
	base.Inc(1)
	base.Merge(a)
	base.Merge(b)
	for _, tc := range []struct{ key, want int }{{1, 2}, {5, 2}, {9, 2}, {7, 0}} {
		got, _ := base.Get(tc.key)
		if got != tc.want {
			t.Errorf("count(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	a.ResetCounts()
	if n, _ := a.Get(1); n != 0 {
		t.Errorf("ResetCounts left count(1) = %d", n)
	}
	if n, _ := base.Get(1); n != 2 {
		t.Errorf("ResetCounts of a fork mutated the base: count(1) = %d", n)
	}
}

func TestBitset(t *testing.T) {
	a := NewBitset(130)
	b := NewBitset(130)
	a.Set(0)
	a.Set(64)
	b.Set(64)
	b.Set(129)
	a.Or(b)
	for _, i := range []int{0, 64, 129} {
		if !a.Test(i) {
			t.Errorf("bit %d not set after Or", i)
		}
	}
	if a.Test(1) || a.Test(128) {
		t.Error("unexpected bit set")
	}
	if a.Count() != 3 {
		t.Errorf("Count = %d, want 3", a.Count())
	}
	a.Clear()
	if a.Count() != 0 || a.Test(64) {
		t.Error("Clear left bits set")
	}
}

func TestBitsetSetAllUnsetForEach(t *testing.T) {
	// 130 exercises a partial last word; the tail bits past Len must stay
	// clear so Count stays exact.
	b := NewBitset(130)
	b.SetAll()
	if b.Count() != 130 {
		t.Fatalf("Count after SetAll = %d, want 130", b.Count())
	}
	b.Unset(0)
	b.Unset(64)
	b.Unset(129)
	if b.Count() != 127 || b.Test(64) || b.Test(129) {
		t.Fatalf("Unset broken: count=%d", b.Count())
	}
	var visited []int
	b.ForEach(func(i int) {
		if len(visited) < 3 {
			visited = append(visited, i)
		}
		// Unsetting the visited bit mid-iteration must be safe (the peel
		// loop in internal/degen relies on this).
		b.Unset(i)
	})
	if len(visited) < 3 || visited[0] != 1 || visited[1] != 2 || visited[2] != 3 {
		t.Fatalf("ForEach order broken: %v", visited)
	}
	if b.Count() != 0 {
		t.Fatalf("ForEach+Unset left %d bits", b.Count())
	}
	// Exact multiple of 64: SetAll must not touch nonexistent tail bits.
	c := NewBitset(128)
	c.SetAll()
	if c.Count() != 128 {
		t.Fatalf("Count = %d, want 128", c.Count())
	}
	// Empty bitset: all new methods are no-ops.
	e := NewBitset(0)
	e.SetAll()
	e.ForEach(func(int) { t.Fatal("empty bitset visited a bit") })
	if e.Count() != 0 {
		t.Fatal("empty bitset counts bits")
	}
}

func TestBitsetRank(t *testing.T) {
	// 200 bits span a partial last word; the set bits straddle every word
	// boundary.
	b := NewBitset(200)
	for _, i := range []int{0, 5, 63, 64, 100, 127, 128, 199} {
		b.Set(i)
	}
	base := make([]int32, 4)
	b.RankBase(base)
	next := 0
	for i := range b.Len() {
		if got := b.Rank(base, i); got != next {
			t.Fatalf("Rank(%d) = %d, want %d set bits below it", i, got, next)
		}
		if b.Test(i) {
			next++
		}
	}
	// After an Unset, a refilled base numbers the remaining bits densely.
	b.Unset(64)
	b.RankBase(base)
	want := 0
	b.ForEach(func(i int) {
		if got := b.Rank(base, i); got != want {
			t.Errorf("after Unset: Rank(%d) = %d, want %d", i, got, want)
		}
		want++
	})
}

func TestTriangleIndex(t *testing.T) {
	tris := []Triangle{
		NewTriangle(5, 2, 9),
		NewTriangle(1, 2, 3),
		NewTriangle(2, 5, 9), // duplicate of the first
		NewTriangle(0, 7, 8),
	}
	ix := NewTriangleIndex(tris)
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
	// Sorted triple order: (0,7,8) < (1,2,3) < (2,5,9).
	want := []Triangle{NewTriangle(0, 7, 8), NewTriangle(1, 2, 3), NewTriangle(2, 5, 9)}
	for i, w := range want {
		if ix.TriangleAt(i) != w {
			t.Errorf("TriangleAt(%d) = %v, want %v", i, ix.TriangleAt(i), w)
		}
		if ix.Lookup(w) != i {
			t.Errorf("Lookup(%v) = %d, want %d", w, ix.Lookup(w), i)
		}
	}
	if ix.Lookup(NewTriangle(1, 2, 4)) != -1 {
		t.Error("Lookup of absent triangle should be -1")
	}
}

// TestTriangleCountWorkers pins the parallel counter to the sequential one
// across worker counts on a graph large enough to take the chunked path.
func TestTriangleCountWorkers(t *testing.T) {
	b := NewBuilder(0)
	// A long triangular strip: ~3000 vertices, one triangle per step.
	for v := 0; v+2 < 3000; v++ {
		b.AddEdge(v, v+1)
		b.AddEdge(v, v+2)
	}
	g := b.Build()
	want := g.TriangleCountWorkers(1)
	for _, workers := range []int{2, 4, 8} {
		if got := g.TriangleCountWorkers(workers); got != want {
			t.Errorf("TriangleCountWorkers(%d) = %d, want %d", workers, got, want)
		}
	}
	if got := g.TriangleCountBrute(); got != want {
		t.Errorf("brute-force count %d disagrees with %d", got, want)
	}
}

// TestTriangleIndexLargeIDs exercises the unpacked fallback (vertices beyond
// the 21-bit packing limit).
func TestTriangleIndexLargeIDs(t *testing.T) {
	big := triPackLimit + 100
	tris := []Triangle{
		NewTriangle(1, 2, big),
		NewTriangle(0, 1, 2),
		NewTriangle(1, 2, big), // duplicate
	}
	ix := NewTriangleIndex(tris)
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
	if ix.packed != nil {
		t.Fatal("index should not pack vertices beyond the 21-bit limit")
	}
	if got := ix.Lookup(NewTriangle(1, 2, big)); got != 1 {
		t.Errorf("Lookup(large) = %d, want 1", got)
	}
	if ix.Lookup(NewTriangle(3, 4, big)) != -1 {
		t.Error("Lookup of absent large triangle should be -1")
	}
}
