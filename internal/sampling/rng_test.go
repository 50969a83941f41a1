package sampling

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/100 times", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s := r.Split()
	// The split stream should not track the parent.
	equal := 0
	for i := 0; i < 50; i++ {
		if r.Uint64() == s.Uint64() {
			equal++
		}
	}
	if equal > 1 {
		t.Fatalf("split stream mirrors parent %d/50 times", equal)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64MeanApproximatelyHalf(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniforms %.4f, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(3)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("bucket %d frequency %.4f, want ~0.1", b, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Int63n(-5)
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(4)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %.4f", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleIntsPreservesMultiset(t *testing.T) {
	r := NewRNG(6)
	s := []int{5, 5, 7, 1, 2, 3}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.ShuffleInts(s)
	sum2 := 0
	for _, v := range s {
		sum2 += v
	}
	if sum != sum2 || len(s) != 6 {
		t.Fatal("shuffle changed contents")
	}
}

func TestShuffleFuncSwaps(t *testing.T) {
	r := NewRNG(8)
	s := []string{"a", "b", "c", "d", "e"}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	if len(s) != 5 {
		t.Fatal("length changed")
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(10)
	p := 0.25
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		g := r.Geometric(p)
		if g < 1 {
			t.Fatalf("geometric sample %d < 1", g)
		}
		sum += float64(g)
	}
	mean := sum / n
	if math.Abs(mean-1/p) > 0.1 {
		t.Fatalf("geometric mean %.4f, want ~%.1f", mean, 1/p)
	}
	if NewRNG(1).Geometric(1) != 1 {
		t.Error("Geometric(1) should be 1")
	}
}

func TestGeometricPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Geometric(0)
}
