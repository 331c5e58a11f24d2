package main

import (
	"math"
	"sort"
)

// summary is the spread record attached to every reported metric: the
// sample count, median, quartiles and extremes of the samples the
// metric was derived from.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailOf returns the sample at the highest percentile that still has at
// least tailBeyond samples above it, and that percentile. ok is false
// when there are too few samples for such a percentile to exist.
func tailOf(xs []float64) (value, pct float64, ok bool) {
	const tailBeyond = 10
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	i := n - tailBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n), true
}

// pct returns the q-quantile of xs (0 for no samples: a layer the
// workload bypasses reports zero).
func pct(xs []float64, q float64) float64 { return quantile(sortedCopy(xs), q) }

// interquartileMean is the mean of the samples left after dropping the
// lowest and the highest quarter.
func interquartileMean(xs []float64) float64 {
	s := sortedCopy(xs)
	q := len(s) / 4
	s = s[q : len(s)-q]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
