package main

import (
	"math/bits"
	"sort"
)

// hist is a log-bucket latency histogram over nanoseconds: 32 sub-buckets
// per octave, so a quantile read back from it is within 1/64 (< 3 %) of a
// sample in its bucket. Values below 32 ns get one bucket each.
type hist struct {
	counts [histBuckets]uint32
	n      int64
	sum    int64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// 2^42 ns is over an hour; anything slower lands in the last bucket.
	histBuckets = (42 - histSubBits + 1) * histSub
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	b := (e-histSubBits+1)*histSub + int((uint64(ns)>>(e-histSubBits))&(histSub-1))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histBucketMid is the midpoint of bucket b's value range.
func histBucketMid(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	e := b/histSub + histSubBits - 1
	lo := (uint64(1) << e) | uint64(b%histSub)<<(e-histSubBits)
	width := uint64(1) << (e - histSubBits)
	return float64(lo) + float64(width-1)/2
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, 0 if empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += int64(c)
		if seen > rank {
			return histBucketMid(b)
		}
	}
	return histBucketMid(histBuckets - 1)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// median of a float slice (the slice is sorted in place); 0 if empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
