package sampling

import (
	"math"
	"testing"
)

func TestCumulativeSamplerErrors(t *testing.T) {
	if _, err := NewCumulativeSampler(nil); err == nil {
		t.Error("expected error for empty weights")
	}
	if _, err := NewCumulativeSampler([]int64{0, 0}); err == nil {
		t.Error("expected error for zero total")
	}
	if _, err := NewCumulativeSampler([]int64{3, -1}); err == nil {
		t.Error("expected error for negative weight")
	}
}

func TestCumulativeSamplerDistribution(t *testing.T) {
	weights := []int64{2, 0, 5, 3}
	cs, err := NewCumulativeSampler(weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(13)
	const trials = 100000
	counts := make([]int, len(weights))
	for i := 0; i < trials; i++ {
		counts[cs.Sample(rng)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight outcome sampled %d times", counts[1])
	}
	for i, w := range weights {
		frac := float64(counts[i]) / trials
		want := float64(w) / 10
		if math.Abs(frac-want) > 0.01 {
			t.Fatalf("outcome %d frequency %.4f, want %.4f", i, frac, want)
		}
	}
}

func BenchmarkCumulativeSample(b *testing.B) {
	weights := make([]int64, 10000)
	rng := NewRNG(1)
	for i := range weights {
		weights[i] = rng.Int63n(100) + 1
	}
	cs, err := NewCumulativeSampler(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Sample(rng)
	}
}
