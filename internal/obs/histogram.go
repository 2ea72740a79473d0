package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: HDR-style log-linear. Values 0..7 get exact
// unit buckets; above that, each power-of-two octave is split into
// 2^subBits = 8 linear sub-buckets, so a bucket's width is at most 1/8 of
// its lower bound and the midpoint representative is within ±6.25%
// (≤ 12.5% worst case at the bucket edges) of any value it absorbed. The
// histogram property test pins quantile estimates against a sorted-slice
// oracle at exactly this bound.
//
// 8 unit buckets + 61 octaves × 8 sub-buckets covers the full uint64
// range in 496 fixed slots — no resizing, no allocation after the handle
// exists, and Observe is two atomic adds plus a CAS-free max update.
const (
	subBits     = 3
	subCount    = 1 << subBits
	unitBuckets = subCount
	numBuckets  = unitBuckets + (64-subBits)*subCount
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < unitBuckets {
		return int(v)
	}
	// msb is the 1-based position of the leading bit; for v >= 8 it is at
	// least subBits+1. The sub-bucket is the subBits bits below the
	// leading one.
	msb := bits.Len64(v)
	shift := uint(msb - 1 - subBits)
	sub := int(v>>shift) & (subCount - 1)
	return unitBuckets + (msb-subBits-1)*subCount + sub
}

// bucketMid returns the midpoint representative value of bucket i — the
// value quantile estimates report.
func bucketMid(i int) uint64 {
	if i < unitBuckets {
		return uint64(i)
	}
	i -= unitBuckets
	octave := i / subCount // 0 => values with msb == subBits+1 (8..15)
	sub := i % subCount
	// Lower bound: leading bit at position octave+subBits, sub-bucket
	// offset below it; width is one sub-bucket step.
	shift := uint(octave)
	lo := (uint64(1) << (shift + subBits)) | (uint64(sub) << shift)
	return lo + (uint64(1)<<shift)/2
}

// Histogram is a fixed-layout log-linear histogram of non-negative
// values (typically durations in nanoseconds). The zero value is usable;
// a nil *Histogram is a no-op. Observe is lock-free and allocation-free.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [numBuckets]atomic.Uint64
}

// Observe records v. Negative values are clamped to zero (a backwards
// wall clock must not crash accounting).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.buckets[bucketIndex(u)].Add(1)
	h.count.Add(1)
	h.sum.Add(u)
	for {
		cur := h.max.Load()
		if u <= cur || h.max.CompareAndSwap(cur, u) {
			return
		}
	}
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Name returns the registered metric name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot reads the histogram into a self-consistent summary. Quantiles
// are computed over the bucket counts read at this instant; under
// concurrent Observe traffic the snapshot is a valid histogram of some
// prefix-plus-subset of the observations (each bucket read is atomic).
// Quantiles are clamped to Max: a bucket's midpoint can lie above every
// value in the bucket, and a concurrent Observe can land in a bucket
// before it raises Max.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	s.Count = total
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	s.P50 = min(quantile(&counts, total, 0.50), s.Max)
	s.P99 = min(quantile(&counts, total, 0.99), s.Max)
	s.P999 = min(quantile(&counts, total, 0.999), s.Max)
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observations.
// Like Snapshot's quantiles, it never exceeds the largest observation.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	return min(quantile(&counts, total, q), h.max.Load())
}

// quantile walks the bucket array to the bucket containing the rank and
// returns its midpoint representative.
func quantile(counts *[numBuckets]uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := range counts {
		seen += counts[i]
		if seen > rank {
			return bucketMid(i)
		}
	}
	return bucketMid(numBuckets - 1)
}
