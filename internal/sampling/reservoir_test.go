package sampling

import (
	"math"
	"testing"
)

func TestSingleReservoirEmpty(t *testing.T) {
	s := NewSingleReservoir[string](NewRNG(1))
	if _, ok := s.Value(); ok {
		t.Fatal("empty reservoir reported a value")
	}
	if s.Seen() != 0 {
		t.Fatal("seen should be 0")
	}
}

func TestSingleReservoirUniform(t *testing.T) {
	const stream = 10
	const trials = 40000
	counts := make([]int, stream)
	rng := NewRNG(6)
	for trial := 0; trial < trials; trial++ {
		s := NewSingleReservoir[int](rng)
		for i := 0; i < stream; i++ {
			s.Offer(i)
		}
		v, ok := s.Value()
		if !ok {
			t.Fatal("no value")
		}
		counts[v]++
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("element %d frequency %.4f", i, frac)
		}
	}
}

func TestSingleReservoirReset(t *testing.T) {
	s := NewSingleReservoir[int](NewRNG(7))
	s.Offer(3)
	s.Reset()
	if _, ok := s.Value(); ok || s.Seen() != 0 {
		t.Fatal("reset failed")
	}
}

func TestWeightedSingleReservoirProportional(t *testing.T) {
	// Items 0,1,2 with weights 1,2,7 should be selected with probabilities
	// 0.1, 0.2, 0.7.
	weights := []float64{1, 2, 7}
	const trials = 60000
	counts := make([]int, len(weights))
	rng := NewRNG(8)
	for trial := 0; trial < trials; trial++ {
		w := NewWeightedSingleReservoir[int](rng)
		for i, wt := range weights {
			w.Offer(i, wt)
		}
		v, ok := w.Value()
		if !ok {
			t.Fatal("no value")
		}
		counts[v]++
	}
	var total float64
	for _, wt := range weights {
		total += wt
	}
	for i, c := range counts {
		frac := float64(c) / trials
		want := weights[i] / total
		if math.Abs(frac-want) > 0.01 {
			t.Fatalf("item %d frequency %.4f, want ~%.4f", i, frac, want)
		}
	}
}

func TestWeightedSingleReservoirSkipsZeroWeight(t *testing.T) {
	w := NewWeightedSingleReservoir[int](NewRNG(9))
	w.Offer(1, 0)
	if _, ok := w.Value(); ok {
		t.Fatal("zero-weight item was selected")
	}
	w.Offer(2, 5)
	if v, ok := w.Value(); !ok || v != 2 {
		t.Fatal("positive-weight item not selected")
	}
}

func TestWeightedSingleReservoirPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWeightedSingleReservoir[int](NewRNG(1)).Offer(1, -1)
}

func TestWeightedSingleReservoirReset(t *testing.T) {
	w := NewWeightedSingleReservoir[int](NewRNG(10))
	w.Offer(1, 1e9)
	w.Reset()
	if _, ok := w.Value(); ok {
		t.Fatal("reset failed")
	}
	// The weight offered before the reset no longer counts: the first item
	// after it is selected for sure.
	w.Offer(2, 1)
	if v, ok := w.Value(); !ok || v != 2 {
		t.Fatal("reset kept the offered weight")
	}
}
