package graph

import "math/bits"

// Bitset is a fixed-size bit array. The estimators use one bit per
// closure-check item in the sharded passes: each shard sets hits in its own
// Bitset and the shards are OR-merged in shard order, which replaces the
// unsynchronized "write true into a shared bool" of the sequential code.
type Bitset struct {
	n     int
	words []uint64
}

// NewBitset returns a zeroed bitset of n bits.
func NewBitset(n int) *Bitset {
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.words[uint(i)/64] |= 1 << (uint(i) % 64)
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	return b.words[uint(i)/64]&(1<<(uint(i)%64)) != 0
}

// Unset clears bit i.
func (b *Bitset) Unset(i int) {
	b.words[uint(i)/64] &^= 1 << (uint(i) % 64)
}

// SetAll sets every bit in [0, Len()). Bits beyond Len() in the last word
// stay zero so Count stays exact.
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := b.n % 64; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << tail) - 1
	}
}

// ForEach invokes fn for every set bit in ascending order. fn may Unset the
// bit it is visiting (each word is iterated from a snapshot).
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * 64
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Or merges other into b. The two bitsets must have the same length.
func (b *Bitset) Or(other *Bitset) {
	if other.n != b.n {
		panic("graph: Bitset.Or with mismatched lengths")
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// RankBase fills base, which must hold ⌈Len()/64⌉ entries, with the number
// of set bits in the words below each word, so that Rank can number the set
// bits densely. It must be refilled after any Set or Unset.
func (b *Bitset) RankBase(base []int32) {
	n := int32(0)
	for w, word := range b.words {
		base[w] = n
		n += int32(bits.OnesCount64(word))
	}
}

// Rank returns the number of set bits below i, given the base RankBase
// filled: the set bits are numbered 0, 1, ... in ascending order.
func (b *Bitset) Rank(base []int32, i int) int {
	w := uint(i) / 64
	return int(base[w]) + bits.OnesCount64(b.words[w]&(1<<(uint(i)%64)-1))
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear zeroes every bit, letting a pooled bitset be reused.
func (b *Bitset) Clear() {
	clear(b.words)
}
