package sampling

// Reservoir maintains a uniform random sample (with replacement across
// independent reservoirs, without replacement within one) of k items from a
// stream of unknown length, using Vitter's Algorithm R. Each call to Offer
// costs O(1) expected time and the reservoir holds at most k items.
type Reservoir[T any] struct {
	k     int
	seen  int64
	items []T
	rng   *RNG
}

// NewReservoir creates a reservoir that keeps a uniform sample of up to k
// items. It panics if k <= 0.
func NewReservoir[T any](k int, rng *RNG) *Reservoir[T] {
	if k <= 0 {
		panic("sampling: reservoir size must be positive")
	}
	return &Reservoir[T]{k: k, items: make([]T, 0, k), rng: rng}
}

// Offer presents the next stream item to the reservoir.
func (r *Reservoir[T]) Offer(item T) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, item)
		return
	}
	j := r.rng.Int63n(r.seen)
	if j < int64(r.k) {
		r.items[j] = item
	}
}

// Items returns the current sample. The slice aliases internal storage.
func (r *Reservoir[T]) Items() []T { return r.items }

// Seen returns how many items have been offered.
func (r *Reservoir[T]) Seen() int64 { return r.seen }

// Capacity returns k.
func (r *Reservoir[T]) Capacity() int { return r.k }

// Reset clears the reservoir for a fresh pass.
func (r *Reservoir[T]) Reset() {
	r.items = r.items[:0]
	r.seen = 0
}

// SingleReservoir keeps one uniform random item from a stream. It is the
// size-1 special case used pervasively by the estimators (uniform neighbor
// selection in passes 3 and 5 of Algorithm 2), kept separate from Reservoir
// to avoid slice overhead when millions of instances are live at once.
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
