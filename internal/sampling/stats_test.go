package sampling

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanMedianVariance(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice statistics should be zero")
	}
	vals := []float64{1, 2, 3, 4, 5}
	if Mean(vals) != 3 {
		t.Errorf("Mean = %v", Mean(vals))
	}
	if Median(vals) != 3 {
		t.Errorf("Median = %v", Median(vals))
	}
	if !almostEqual(Variance(vals), 2, 1e-12) {
		t.Errorf("Variance = %v, want 2", Variance(vals))
	}
	if Variance([]float64{7}) != 0 {
		t.Error("variance of single value should be 0")
	}
}

func TestMedianEven(t *testing.T) {
	// Nearest-rank median of {1,2,3,4} is 2.
	if got := Median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.1, 10}, {0.5, 50}, {0.9, 90}, {1, 100}, {-0.5, 10}, {1.5, 100},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile of empty should be 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestMedianOfMeans(t *testing.T) {
	if MedianOfMeans(nil, 3) != 0 {
		t.Error("empty input should give 0")
	}
	vals := []float64{1, 1, 1, 100, 1, 1}
	// Plain mean is skewed by the outlier; median of 3 group means is robust.
	mom := MedianOfMeans(vals, 3)
	if mom > 10 {
		t.Errorf("MedianOfMeans = %v, expected robustness to the outlier", mom)
	}
	// groups <= 1 degrades to the mean.
	if MedianOfMeans(vals, 1) != Mean(vals) {
		t.Error("groups=1 should equal the mean")
	}
	// More groups than values degrades to the mean.
	if MedianOfMeans([]float64{2, 4}, 5) != 3 {
		t.Error("fewer values than groups should fall back to the mean")
	}
}

func TestMedianOfMeansUnbiasedOnConstant(t *testing.T) {
	vals := make([]float64, 90)
	for i := range vals {
		vals[i] = 42
	}
	for _, groups := range []int{1, 3, 9, 10} {
		if got := MedianOfMeans(vals, groups); got != 42 {
			t.Errorf("groups=%d: %v, want 42", groups, got)
		}
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(110, 100) != 0.1 {
		t.Errorf("RelativeError(110,100) = %v", RelativeError(110, 100))
	}
	if RelativeError(90, 100) != 0.1 {
		t.Errorf("RelativeError(90,100) = %v", RelativeError(90, 100))
	}
	if RelativeError(0, 0) != 0 {
		t.Error("0/0 relative error should be 0")
	}
	if !math.IsInf(RelativeError(5, 0), 1) {
		t.Error("nonzero estimate of zero truth should be +Inf")
	}
}

// Property: min <= median <= max and min <= mean <= max for any input.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		lo, hi := slices.Min(vals), slices.Max(vals)
		med, mean := Median(vals), Mean(vals)
		return lo <= med && med <= hi && lo <= mean+1e-9 && mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
