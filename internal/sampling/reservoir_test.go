package sampling

import (
	"math"
	"testing"
)

func TestReservoirKeepsAllWhenUnderCapacity(t *testing.T) {
	r := NewReservoir[int](10, NewRNG(1))
	for i := 0; i < 5; i++ {
		r.Offer(i)
	}
	if len(r.Items()) != 5 || r.Seen() != 5 {
		t.Fatalf("items=%v seen=%d", r.Items(), r.Seen())
	}
	for i, v := range r.Items() {
		if v != i {
			t.Fatalf("item %d = %d", i, v)
		}
	}
}

func TestReservoirCapacityRespected(t *testing.T) {
	r := NewReservoir[int](7, NewRNG(2))
	for i := 0; i < 1000; i++ {
		r.Offer(i)
	}
	if len(r.Items()) != 7 {
		t.Fatalf("len=%d, want 7", len(r.Items()))
	}
	if r.Capacity() != 7 {
		t.Fatalf("capacity=%d", r.Capacity())
	}
	if r.Seen() != 1000 {
		t.Fatalf("seen=%d", r.Seen())
	}
}

func TestReservoirPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReservoir[int](0, NewRNG(1))
}

func TestReservoirUniformity(t *testing.T) {
	// Sample 1 item from a stream of 20, repeat many times; each element
	// should be chosen ~1/20 of the time.
	const stream = 20
	const trials = 40000
	counts := make([]int, stream)
	rng := NewRNG(3)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir[int](1, rng)
		for i := 0; i < stream; i++ {
			r.Offer(i)
		}
		counts[r.Items()[0]]++
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-1.0/stream) > 0.01 {
			t.Fatalf("element %d selected with frequency %.4f, want ~%.4f", i, frac, 1.0/stream)
		}
	}
}

func TestReservoirInclusionProbability(t *testing.T) {
	// With k=5 over 50 items every item should appear with probability 0.1.
	const stream = 50
	const k = 5
	const trials = 20000
	counts := make([]int, stream)
	rng := NewRNG(4)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir[int](k, rng)
		for i := 0; i < stream; i++ {
			r.Offer(i)
		}
		for _, v := range r.Items() {
			counts[v]++
		}
	}
	want := float64(k) / stream
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-want) > 0.015 {
			t.Fatalf("element %d inclusion frequency %.4f, want ~%.2f", i, frac, want)
		}
	}
}

func TestReservoirReset(t *testing.T) {
	r := NewReservoir[int](3, NewRNG(5))
	for i := 0; i < 10; i++ {
		r.Offer(i)
	}
	r.Reset()
	if len(r.Items()) != 0 || r.Seen() != 0 {
		t.Fatal("reset did not clear reservoir")
	}
}

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
