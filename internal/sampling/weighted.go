package sampling

import "fmt"

// CumulativeSampler samples an index proportional to integer weights using
// binary search over prefix sums: O(log n) per draw, exact for integer
// weights.
type CumulativeSampler struct {
	prefix []int64
	total  int64
}

// NewCumulativeSampler builds a sampler over the given non-negative integer
// weights. It returns an error if the weights are empty or sum to zero.
func NewCumulativeSampler(weights []int64) (*CumulativeSampler, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("sampling: cumulative sampler needs at least one weight")
	}
	c := &CumulativeSampler{prefix: make([]int64, len(weights))}
	var run int64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("sampling: negative weight %d at index %d", w, i)
		}
		run += w
		c.prefix[i] = run
	}
	if run == 0 {
		return nil, fmt.Errorf("sampling: all weights are zero")
	}
	c.total = run
	return c, nil
}

// Sample draws an index with probability weight[i]/total.
func (c *CumulativeSampler) Sample(rng *RNG) int {
	target := rng.Int63n(c.total) + 1 // uniform in [1, total]
	lo, hi := 0, len(c.prefix)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.prefix[mid] >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
