package main

import (
	"hash/fnv"
	"math"
	"sort"

	"rsu/internal/img"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailBeyond is how many samples must lie beyond a reported tail value.
const tailBeyond = 10

// tail returns the highest order statistic with at least tailBeyond samples
// beyond it, the percentile it sits at, and how many samples lie beyond.
// With too few samples it falls back to the maximum, with 0 beyond.
func tail(xs []float64) (v, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return s[n-1], 100, 0
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), tailBeyond
}

// labelHash fingerprints a labeling, so two solves can be compared exactly.
func labelHash(lab *img.Labels) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range lab.L {
		b[0], b[1], b[2], b[3] = byte(l), byte(l>>8), byte(l>>16), byte(l>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}
