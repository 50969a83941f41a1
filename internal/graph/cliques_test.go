package graph

import (
	"math/rand"
	"testing"
)

func TestCliqueCountSpecialCases(t *testing.T) {
	g := completeGraph(6)
	if g.CliqueCount(1) != 6 {
		t.Errorf("1-cliques = %d", g.CliqueCount(1))
	}
	if g.CliqueCount(2) != 15 {
		t.Errorf("2-cliques = %d", g.CliqueCount(2))
	}
	if g.CliqueCount(3) != 20 {
		t.Errorf("3-cliques = %d", g.CliqueCount(3))
	}
}

func TestCliqueCountPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	completeGraph(4).CliqueCount(0)
}

func TestCliqueCountCompleteGraph(t *testing.T) {
	// K_n has C(n, k) k-cliques.
	binom := func(n, k int) int64 {
		res := int64(1)
		for i := 0; i < k; i++ {
			res = res * int64(n-i) / int64(i+1)
		}
		return res
	}
	for _, n := range []int{4, 6, 9} {
		g := completeGraph(n)
		for k := 3; k <= 6 && k <= n; k++ {
			if got := g.CliqueCount(k); got != binom(n, k) {
				t.Errorf("K%d: %d-cliques = %d, want %d", n, k, got, binom(n, k))
			}
		}
	}
}

func TestCliqueCountKnownGraphs(t *testing.T) {
	// Wheel graphs have no K4 (planar graphs can, but wheels' triangles share
	// only the hub edge pattern); actually W_4 = K4 has exactly one.
	if got := wheelGraph(4).CliqueCount(4); got != 1 {
		t.Errorf("W4 4-cliques = %d, want 1", got)
	}
	if got := wheelGraph(20).CliqueCount(4); got != 0 {
		t.Errorf("W20 4-cliques = %d, want 0", got)
	}
	// A book graph has no K4 either.
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	for v := 2; v < 6; v++ {
		b.AddEdge(0, v)
		b.AddEdge(1, v)
	}
	if got := b.Build().CliqueCount(4); got != 0 {
		t.Errorf("book 4-cliques = %d, want 0", got)
	}
	// Two K4s sharing a single vertex: 2 four-cliques, 8 triangles.
	b2 := NewBuilder(7)
	quad := func(vs [4]int) {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b2.AddEdge(vs[i], vs[j])
			}
		}
	}
	quad([4]int{0, 1, 2, 3})
	quad([4]int{3, 4, 5, 6})
	g2 := b2.Build()
	if got := g2.CliqueCount(4); got != 2 {
		t.Errorf("double-K4 4-cliques = %d, want 2", got)
	}
	if got := g2.CliqueCount(5); got != 0 {
		t.Errorf("double-K4 5-cliques = %d, want 0", got)
	}
}

func TestCliqueCountMatchesBruteOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(12)
		g := randomGraph(n, 0.5, rng)
		for k := 3; k <= 5; k++ {
			fast := g.CliqueCount(k)
			brute := g.CliqueCountBrute(k)
			if fast != brute {
				t.Fatalf("trial %d k=%d: fast=%d brute=%d", trial, k, fast, brute)
			}
		}
	}
}

func TestCliqueCountBrutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	completeGraph(3).CliqueCountBrute(0)
}

func BenchmarkCliqueCount4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(400, 0.05, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CliqueCount(4)
	}
}
