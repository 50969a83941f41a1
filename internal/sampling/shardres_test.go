package sampling

import (
	"fmt"
	"math"
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

// bankLayouts are the shard layouts of TestResKMergeUniform: shard s offers
// the positions [bounds[s], bounds[s+1]), and k is the bank size.
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

// chiSquareZ returns the chi-square statistic of counts against a uniform
// expectation, normalized as z = (X² − df)/√(2·df).
func chiSquareZ(counts []int, trials int) float64 {
	want := float64(trials) / float64(len(counts))
	x2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		x2 += d * d / want
	}
	df := float64(len(counts) - 1)
	return (x2 - df) / math.Sqrt(2*df)
}

// TestResKMergeUniform checks that a merged bank holds k independent uniform
// samples of the concatenated stream: the marginal of every sample and the
// joint distributions of (W[0], W[1]) and (W[0], W[k−1]) must be uniform over
// their n and n² cells, for layouts that cover the verbatim, Algorithm L and
// saturating-merge paths and empty shards. Seeds are fixed, so the test is
// deterministic.
func TestResKMergeUniform(t *testing.T) {
	const trials = 60000
	for li, lay := range bankLayouts {
		k, bounds := lay.k, lay.bounds
		n := bounds[len(bounds)-1]
		marginals := make([][]int, k)
		for j := range marginals {
			marginals[j] = make([]int, n)
		}
		next := make([]int, n*n) // (W[0], W[1])
		last := make([]int, n*n) // (W[0], W[k−1])
		var r ResK
		for trial := 0; trial < trials; trial++ {
			var m ResKMerger
			m.Init(MixSeed(11, uint64(li), uint64(trial)), k)
			for s := 0; s+1 < len(bounds); s++ {
				r.Init(MixSeed(13, uint64(li), uint64(trial), uint64(s)), k)
				for v := bounds[s]; v < bounds[s+1]; v++ {
					r.Offer(v)
				}
				m.Absorb(&r)
			}
			m.Finish()
			if m.N != int64(n) || len(m.W) != k {
				t.Fatalf("%s: N = %d with %d samples, want %d with %d", lay.name, m.N, len(m.W), n, k)
			}
			for j, w := range m.W {
				marginals[j][w]++
			}
			next[m.W[0]*n+m.W[1]]++
			last[m.W[0]*n+m.W[k-1]]++
		}
		check := func(what string, counts []int) {
			if z := chiSquareZ(counts, trials); math.Abs(z) > 4 {
				t.Errorf("%s: %s is not uniform over %d cells: chi-square z = %.2f", lay.name, what, len(counts), z)
			}
		}
		for j := range marginals {
			check(fmt.Sprintf("W[%d]", j), marginals[j])
		}
		check("(W[0], W[1])", next)
		check("(W[0], W[k-1])", last)
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
	m.Finish()
	if !m.Has() || m.N != 2 || len(m.W) != 3 {
		t.Fatalf("merged bank N=%d with %d samples, want 2 with 3", m.N, len(m.W))
	}
	for j, w := range m.W {
		if w != 100 && w != 101 {
			t.Fatalf("sample %d = %d is a stale offer", j, w)
		}
	}
}
