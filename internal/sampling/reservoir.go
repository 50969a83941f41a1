package sampling

// SingleReservoir keeps one uniform random item from a stream, drawing once
// per offer from a shared RNG. The degree-oracle estimator (Algorithm 1,
// core.IdealEstimator) uses it for uniform neighbor selection; the streaming
// passes use the keyed, skip-ahead Res1 and ResK instead (shardres.go).
type SingleReservoir[T any] struct {
	seen  int64
	item  T
	valid bool
	rng   *RNG
}

// NewSingleReservoir returns an empty single-item reservoir.
func NewSingleReservoir[T any](rng *RNG) *SingleReservoir[T] {
	return &SingleReservoir[T]{rng: rng}
}

// Offer presents the next item.
func (s *SingleReservoir[T]) Offer(item T) {
	s.seen++
	if s.rng.Int63n(s.seen) == 0 {
		s.item = item
		s.valid = true
	}
}

// Value returns the sampled item and whether anything has been offered.
func (s *SingleReservoir[T]) Value() (T, bool) { return s.item, s.valid }

// Seen returns the number of items offered.
func (s *SingleReservoir[T]) Seen() int64 { return s.seen }

// Reset clears the reservoir.
func (s *SingleReservoir[T]) Reset() {
	var zero T
	s.item = zero
	s.valid = false
	s.seen = 0
}

// WeightedSingleReservoir keeps one item sampled with probability
// proportional to its weight from a stream, using Chao's procedure: the
// incoming item replaces the current one with probability w/Σw. It is the
// primitive behind degree-proportional edge sampling in the degree-oracle
// model (Algorithm 1).
type WeightedSingleReservoir[T any] struct {
	total float64
	item  T
	valid bool
	rng   *RNG
}

// NewWeightedSingleReservoir returns an empty weighted reservoir.
func NewWeightedSingleReservoir[T any](rng *RNG) *WeightedSingleReservoir[T] {
	return &WeightedSingleReservoir[T]{rng: rng}
}

// Offer presents an item with the given non-negative weight. Zero-weight
// items can never be selected; negative weights panic.
func (w *WeightedSingleReservoir[T]) Offer(item T, weight float64) {
	if weight < 0 {
		panic("sampling: negative weight")
	}
	if weight == 0 {
		return
	}
	w.total += weight
	if w.rng.Float64()*w.total < weight {
		w.item = item
		w.valid = true
	}
}

// Value returns the sampled item and whether any positive-weight item has
// been offered.
func (w *WeightedSingleReservoir[T]) Value() (T, bool) { return w.item, w.valid }

// Reset clears the reservoir.
func (w *WeightedSingleReservoir[T]) Reset() {
	var zero T
	w.item = zero
	w.valid = false
	w.total = 0
}
