package serve

import (
	"math"
	"testing"
)

// stageHist is a snapshot over stageBounds plus the overflow bucket with
// the given per-bucket counts and observation sum.
func stageHist(sum float64, counts ...uint64) HistogramSnapshot {
	h := HistogramSnapshot{Sum: sum, Buckets: make([]BucketSnapshot, len(stageBounds)+1)}
	for i := range h.Buckets {
		h.Buckets[i].LE = math.Inf(1)
		if i < len(stageBounds) {
			h.Buckets[i].LE = stageBounds[i]
		}
		if i < len(counts) {
			h.Buckets[i].Count = counts[i]
			h.Count += counts[i]
		}
	}
	return h
}

// TestHistogramQuantile: no estimate exceeds the Markov bound
// mean/(1−q) that the histogram's own sum sets, and where that bound is
// slack the estimate is the bucket interpolation.
func TestHistogramQuantile(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    HistogramSnapshot
		q    float64
		want float64
	}{
		// 1,000 observations of 0.3 µs, all in the first (0, 5] bucket:
		// the interpolation reads 2.5, the mean bound 0.6.
		{"0.3us p50", stageHist(300, 1000), 0.5, 0.6},
		{"zeros p50", stageHist(0, 1000), 0.5, 0},
		{"zeros p99", stageHist(0, 1000), 0.99, 0},
		// 100 observations in each of the first four buckets, mean 16.25:
		// every bound is slack.
		{"spread p50", stageHist(6500, 100, 100, 100, 100), 0.5, 10},
		{"spread p90", stageHist(6500, 100, 100, 100, 100), 0.9, 40},
		{"spread p99", stageHist(6500, 100, 100, 100, 100), 0.99, 49},
		{"spread max", stageHist(6500, 100, 100, 100, 100), 1, 50},
		{"empty", stageHist(0), 0.5, 0},
	} {
		if got := tc.h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: Quantile(%g) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}
