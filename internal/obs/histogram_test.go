package obs

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBucketIndexMonotoneAndMid(t *testing.T) {
	// Every value maps into a bucket whose midpoint is within 12.5%; the
	// index is monotone in the value.
	vals := []uint64{0, 1, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1<<63 + 1}
	last := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i < last {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, last)
		}
		last = i
		mid := bucketMid(i)
		slack := v/8 + 1
		if mid+slack < v || mid > v+slack {
			t.Fatalf("bucketMid(%d)=%d not within 12.5%% of %d", i, mid, v)
		}
	}
	// Exhaustive small-value check: 0..7 are exact.
	for v := uint64(0); v < 8; v++ {
		if got := bucketMid(bucketIndex(v)); got != v {
			t.Fatalf("unit bucket %d reported as %d", v, got)
		}
	}
	if bucketIndex(^uint64(0)) >= numBuckets {
		t.Fatal("max uint64 overflows the bucket array")
	}
}

// TestHistogramQuantileProperty pins the quantile error bound against a
// sorted-slice oracle across randomized distributions: for every tested
// quantile the estimate must land within one sub-bucket (≤ 12.5%
// relative error) of the exact order statistic. Distributions cover the
// shapes the system produces: uniform latencies, log-normal-ish heavy
// tails, constants, and tiny samples.
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	quantiles := []float64{0.5, 0.9, 0.99, 0.999}
	gen := []struct {
		name string
		draw func(n int) []uint64
	}{
		{"uniform", func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(rng.Int63n(10_000_000))
			}
			return out
		}},
		{"heavy-tail", func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				v := uint64(rng.Int63n(1000)) + 1
				for rng.Intn(4) == 0 { // multiplicative tail
					v *= 7
				}
				out[i] = v
			}
			return out
		}},
		{"constant", func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = 123456
			}
			return out
		}},
		{"bimodal", func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				if rng.Intn(2) == 0 {
					out[i] = uint64(rng.Int63n(100))
				} else {
					out[i] = 1_000_000 + uint64(rng.Int63n(1000))
				}
			}
			return out
		}},
		{"tiny", func(n int) []uint64 { return []uint64{5, 900000, 17} }},
	}
	for _, g := range gen {
		for trial := 0; trial < 5; trial++ {
			n := 100 + rng.Intn(5000)
			data := g.draw(n)
			var h Histogram
			for _, v := range data {
				h.Observe(int64(v))
			}
			oracle := append([]uint64(nil), data...)
			sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
			for _, q := range quantiles {
				rank := int(q * float64(len(oracle)))
				if rank >= len(oracle) {
					rank = len(oracle) - 1
				}
				exact := oracle[rank]
				got := h.Quantile(q)
				// The estimate's bucket contains the exact order statistic,
				// so the midpoint is within one bucket width: 12.5% (+1 for
				// integer rounding at tiny values).
				slack := exact/8 + 1
				if got+slack < exact || got > exact+slack {
					t.Fatalf("%s trial %d q=%.3f: estimate %d vs oracle %d (slack %d, n=%d)",
						g.name, trial, q, got, exact, slack, len(oracle))
				}
			}
			snap := h.Snapshot()
			if snap.Count != uint64(len(data)) {
				t.Fatalf("%s: count %d != %d", g.name, snap.Count, len(data))
			}
			if snap.Max != oracle[len(oracle)-1] {
				t.Fatalf("%s: max %d != %d", g.name, snap.Max, oracle[len(oracle)-1])
			}
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Max != 0 || s.Sum != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

// TestHistogramQuantileNeverExceedsMax: a single observation sits in a
// bucket whose midpoint lies above it; no quantile may report more than
// the largest value ever observed.
func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	for _, v := range []int64{64, 1000, 1024, 123456789} {
		var h Histogram
		h.Observe(v)
		s := h.Snapshot()
		if s.Max != uint64(v) {
			t.Fatalf("Observe(%d): Max %d", v, s.Max)
		}
		if s.P50 > s.Max || s.P99 > s.Max || s.P999 > s.Max {
			t.Errorf("Observe(%d): snapshot quantiles above Max: %+v", v, s)
		}
		for _, q := range []float64{0.5, 0.99, 1} {
			if got := h.Quantile(q); got > uint64(v) {
				t.Errorf("Observe(%d): Quantile(%v) = %d above Max", v, q, got)
			}
		}
	}
}
