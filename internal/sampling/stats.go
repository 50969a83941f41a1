package sampling

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of the values (0 for an empty slice).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Variance returns the population variance of the values (0 for fewer than
// two values).
func Variance(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	mu := Mean(values)
	var sum float64
	for _, v := range values {
		d := v - mu
		sum += d * d
	}
	return sum / float64(len(values))
}

// Median returns the median of the values (0 for an empty slice). The input
// is not modified.
func Median(values []float64) float64 {
	return Quantile(values, 0.5)
}

// Quantile returns the q-quantile (q in [0,1]) of the values using the
// nearest-rank method on a sorted copy. It returns 0 for an empty slice.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// MedianOfMeans partitions the values into the given number of groups,
// averages each group, and returns the median of the group means. This is
// the standard amplification ("median of the mean" in the paper, Section 4)
// turning a constant-variance estimator into a high-probability one.
// If groups <= 1 or there are fewer values than groups, it degrades to the
// plain mean.
func MedianOfMeans(values []float64, groups int) float64 {
	if len(values) == 0 {
		return 0
	}
	if groups <= 1 || len(values) < groups {
		return Mean(values)
	}
	per := len(values) / groups
	means := make([]float64, 0, groups)
	for g := 0; g < groups; g++ {
		start := g * per
		end := start + per
		if g == groups-1 {
			end = len(values)
		}
		means = append(means, Mean(values[start:end]))
	}
	return Median(means)
}

// RelativeError returns |estimate-truth|/truth. A zero truth with a nonzero
// estimate reports +Inf; zero/zero reports 0.
func RelativeError(estimate, truth float64) float64 {
	if truth == 0 {
		if estimate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(estimate-truth) / math.Abs(truth)
}
