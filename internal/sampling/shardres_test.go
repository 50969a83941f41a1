package sampling

import (
	"math"
	"slices"
	"testing"
)

func TestMixSeedDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for pass := uint64(0); pass < 4; pass++ {
		for inst := uint64(0); inst < 32; inst++ {
			for shard := uint64(0); shard < 8; shard++ {
				s := MixSeed(7, pass, inst, shard)
				if seen[s] {
					t.Fatalf("MixSeed collision at (%d,%d,%d)", pass, inst, shard)
				}
				seen[s] = true
			}
		}
	}
	if MixSeed(7, 1, 2) != MixSeed(7, 1, 2) {
		t.Fatal("MixSeed not deterministic")
	}
	if MixSeed(7, 1, 2) == MixSeed(8, 1, 2) {
		t.Fatal("MixSeed ignores the base seed")
	}
}

// TestRes1Uniform checks that the skip-ahead reservoir selects each stream
// position with roughly equal frequency.
func TestRes1Uniform(t *testing.T) {
	const n, trials = 20, 40000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		var r Res1
		r.Init(MixSeed(3, uint64(trial)))
		for v := 0; v < n; v++ {
			r.Offer(v)
		}
		if r.N != n {
			t.Fatalf("N = %d, want %d", r.N, n)
		}
		counts[r.W]++
	}
	want := float64(trials) / float64(n)
	for v, c := range counts {
		if float64(c) < 0.85*want || float64(c) > 1.15*want {
			t.Errorf("position %d selected %d times, want ~%.0f", v, c, want)
		}
	}
}

// TestRes1MergeUniform checks that merging per-shard reservoirs in shard
// order yields a uniform sample over the concatenated stream, including with
// empty and uneven shards.
func TestRes1MergeUniform(t *testing.T) {
	const trials = 40000
	bounds := []int{0, 3, 3, 10, 11, 20} // shard ranges over positions [0,20)
	n := bounds[len(bounds)-1]
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		var m Res1Merger
		m.Init(MixSeed(9, uint64(trial)))
		for s := 0; s+1 < len(bounds); s++ {
			var r Res1
			r.Init(MixSeed(5, uint64(trial), uint64(s)))
			for v := bounds[s]; v < bounds[s+1]; v++ {
				r.Offer(v)
			}
			m.Absorb(&r)
		}
		if !m.Has() || m.N != int64(n) {
			t.Fatalf("merger N = %d, want %d", m.N, n)
		}
		counts[m.W]++
	}
	want := float64(trials) / float64(n)
	for v, c := range counts {
		if float64(c) < 0.85*want || float64(c) > 1.15*want {
			t.Errorf("position %d selected %d times, want ~%.0f", v, c, want)
		}
	}
}

// bankLayouts are the shard layouts of the bank tests: shard s offers the
// positions [bounds[s], bounds[s+1]), and k is the bank size.
var bankLayouts = []struct {
	name   string
	k      int
	bounds []int
}{
	{"union within k", 8, []int{0, 2, 2, 5, 7}},
	{"one shard past k", 3, []int{0, 10}},
	{"first non-empty shard past k", 3, []int{0, 0, 8, 10}},
	{"saturating merge of verbatim sides", 4, []int{0, 3, 6, 7, 10}},
	{"verbatim shard into saturated union", 4, []int{0, 1, 10, 11, 12}},
	{"both sides saturated", 3, []int{0, 5, 5, 11}},
	{"one offer per shard", 5, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
	{"long shards, small bank", 2, []int{0, 6, 12}},
}

// chiSquareZ returns the chi-square statistic of counts against the expected
// counts want, normalized as z = (X² − df)/√(2·df).
func chiSquareZ(counts []int, want []float64) float64 {
	x2 := 0.0
	for i, c := range counts {
		d := float64(c) - want[i]
		x2 += d * d / want[i]
	}
	df := float64(len(counts) - 1)
	return (x2 - df) / math.Sqrt(2*df)
}

// uniformCells returns the expected counts of trials draws spread uniformly
// over the given number of cells.
func uniformCells(cells, trials int) []float64 {
	want := make([]float64, cells)
	for i := range want {
		want[i] = float64(trials) / float64(cells)
	}
	return want
}

// binomialCells returns the expected counts of trials draws of
// Binomial(n, p) over the values 0..n, with the upper tail pooled into its
// last cell until that cell expects at least 5, together with the counts
// pooled the same way.
func binomialCells(counts []int, n int, p float64, trials int) ([]int, []float64) {
	want := make([]float64, n+1)
	pmf := math.Pow(1-p, float64(n))
	for x := range want {
		want[x] = pmf * float64(trials)
		pmf *= float64(n-x) / float64(x+1) * p / (1 - p)
	}
	counts = slices.Clone(counts)
	for len(want) > 2 && want[len(want)-1] < 5 {
		last := len(want) - 1
		want[last-1] += want[last]
		counts[last-1] += counts[last]
		want, counts = want[:last], counts[:last]
	}
	return counts, want
}

// finishDraws is the reference for Finish: the k draws with replacement it
// summarizes, listed in draw order, and the merger's RNG after them. It works
// on copies, so m is left as it was.
func finishDraws(m ResKMerger) ([]int, RNG) {
	s, d := slices.Clone(m.kept), int64(0)
	draws := make([]int, m.k)
	for i := range draws {
		u := m.rng.Int63n(m.N)
		if u >= d {
			if m.N > int64(len(s)) {
				u = d + m.rng.Int63n(int64(len(s))-d)
			}
			s[d], s[u] = s[u], s[d]
			u = d
			d++
		}
		draws[i] = s[u]
	}
	return draws, m.rng
}

// mergedBank offers the positions of one bankLayouts entry to per-shard banks
// keyed by (li, trial), recycling the pooled bank r for every shard, absorbs
// them in shard order and returns the merger before Finish.
func mergedBank(r *ResK, li, trial int) ResKMerger {
	lay := bankLayouts[li]
	var m ResKMerger
	m.Init(MixSeed(11, uint64(li), uint64(trial)), lay.k)
	for s := 0; s+1 < len(lay.bounds); s++ {
		r.Init(MixSeed(13, uint64(li), uint64(trial), uint64(s)), lay.k)
		for v := lay.bounds[s]; v < lay.bounds[s+1]; v++ {
			r.Offer(v)
		}
		m.Absorb(r)
	}
	return m
}

// TestResKFinishMatchesDraws checks that Finish summarizes exactly the k
// draws of the reference loop: W lists the drawn offers grouped by value in
// first-draw order, C counts each group, and the merger's RNG ends where the
// reference's does, so both made the same draws.
func TestResKFinishMatchesDraws(t *testing.T) {
	const trials = 3000
	var r ResK
	var scratch []int
	for li, lay := range bankLayouts {
		for trial := 0; trial < trials; trial++ {
			m := mergedBank(&r, li, trial)
			draws, rng := finishDraws(m)
			var w, c []int
			for _, v := range draws {
				if i := slices.Index(w, v); i >= 0 {
					c[i]++
				} else {
					w, c = append(w, v), append(c, 1)
				}
			}
			scratch = m.Finish(scratch)
			if !slices.Equal(m.W, w) || !slices.Equal(m.C, c) || m.rng != rng {
				t.Fatalf("%s trial %d: Finish gave W=%v C=%v, want the draws %v grouped as W=%v C=%v",
					lay.name, trial, m.W, m.C, draws, w, c)
			}
		}
	}
}

// TestResKMergeUniform checks that a merged bank summarizes k independent
// uniform samples of the concatenated stream, for layouts that cover the
// verbatim, Algorithm L and saturating-merge paths and empty shards: the
// first sample W[0] is uniform over the n offers; the first two distinct
// offers drawn are uniform over the n(n−1) ordered pairs; each offer's count,
// summed over the trials, is uniform; and the first offer's count C[0] − 1
// follows Binomial(k−1, 1/n). Seeds are fixed, so the test is deterministic.
func TestResKMergeUniform(t *testing.T) {
	const trials = 60000
	for li, lay := range bankLayouts {
		k, n := lay.k, lay.bounds[len(lay.bounds)-1]
		first := make([]int, n)
		pairs := make([]int, n*n) // (W[0], W[1]) over the trials with len(W) ≥ 2
		paired := 0
		totals := make([]int, n)
		repeats := make([]int, k) // C[0] − 1
		var r ResK
		for trial := 0; trial < trials; trial++ {
			m := mergedBank(&r, li, trial)
			m.Finish(nil)
			sum := 0
			for i, w := range m.W {
				if slices.Index(m.W, w) != i {
					t.Fatalf("%s: W = %v repeats %d", lay.name, m.W, w)
				}
				totals[w] += m.C[i]
				sum += m.C[i]
			}
			if m.N != int64(n) || len(m.C) != len(m.W) || sum != k {
				t.Fatalf("%s: N = %d, W = %v, C = %v; want N = %d and counts summing to %d", lay.name, m.N, m.W, m.C, n, k)
			}
			first[m.W[0]]++
			repeats[m.C[0]-1]++
			if len(m.W) >= 2 {
				pairs[m.W[0]*n+m.W[1]]++
				paired++
			}
		}
		check := func(what string, counts []int, want []float64) {
			if z := chiSquareZ(counts, want); math.Abs(z) > 4 {
				t.Errorf("%s: %s does not fit over %d cells: chi-square z = %.2f", lay.name, what, len(counts), z)
			}
		}
		check("W[0]", first, uniformCells(n, trials))
		var distinct []int
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b {
					distinct = append(distinct, pairs[a*n+b])
				} else if pairs[a*n+b] != 0 {
					t.Fatalf("%s: W[0] = W[1] = %d", lay.name, a)
				}
			}
		}
		check("(W[0], W[1])", distinct, uniformCells(n*(n-1), paired))
		check("the summed counts", totals, uniformCells(n, trials*k))
		counts, want := binomialCells(repeats, k-1, 1/float64(n), trials)
		check("C[0] − 1", counts, want)
	}
}

// TestResKReuse checks that Init recycles a pooled bank without leaking state
// between uses: a bank reused with a smaller k holds none of its old offers.
func TestResKReuse(t *testing.T) {
	var r ResK
	r.Init(1, 5)
	for v := 0; v < 100; v++ {
		r.Offer(v)
	}
	r.Drop()
	if r.Ready() {
		t.Fatal("dropped bank still reports Ready")
	}
	r.Init(2, 3)
	if r.N != 0 || len(r.kept) != 0 || !r.Ready() {
		t.Fatalf("reused bank not reset: N=%d, %d kept offers", r.N, len(r.kept))
	}
	r.Offer(100)
	r.Offer(101)
	var m ResKMerger
	m.Init(3, 3)
	m.Absorb(&r)
	m.Finish(nil)
	sum := 0
	for _, c := range m.C {
		sum += c
	}
	if !m.Has() || m.N != 2 || sum != 3 || len(m.C) != len(m.W) {
		t.Fatalf("merged bank N=%d with W=%v C=%v, want N=2 and 3 samples", m.N, m.W, m.C)
	}
	for j, w := range m.W {
		if w != 100 && w != 101 {
			t.Fatalf("sample %d = %d is a stale offer", j, w)
		}
	}
}
