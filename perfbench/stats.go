package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a tail
// percentile before it is reported: fewer, and the "p99" is just the
// largest few samples of a short run.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of quantile q in n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts in
// place), or NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// tailQuantile is quantile for a tail percentile: ok is false unless at
// least minBeyond samples lie beyond the reported rank.
func tailQuantile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs)-rank(len(xs), q) < minBeyond || len(xs) == 0 {
		return math.NaN(), false
	}
	return quantile(xs, q), true
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
