package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the two middle values for
// an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRank picks the tail percentile of n ascending samples: the highest
// nearest-rank percentile with at least minBeyond samples above it, so the
// reported tail always rests on minBeyond observations. With fewer than
// 2·minBeyond+1 samples that percentile falls below the median, and the
// upper median is used instead. It returns the sample index and the
// percentile it stands for.
func tailRank(n, minBeyond int) (idx int, pct float64) {
	if n < 1 {
		return -1, math.NaN()
	}
	idx = n - 1 - minBeyond
	if idx < n/2 {
		idx = n / 2
	}
	return idx, 100 * float64(idx+1) / float64(n)
}

// tail returns the tailRank sample of xs with at least 10 samples beyond
// it, and its percentile.
func tail(xs []float64) (value, pct float64) {
	idx, pct := tailRank(len(xs), 10)
	if idx < 0 {
		return math.NaN(), pct
	}
	return sorted(xs)[idx], pct
}

// samples collects named per-op observations; the reported value of each
// is its median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) addAll(m map[string]float64) {
	for k, v := range m {
		s.add(k, v)
	}
}

func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = median(v)
	}
	return out
}
