package main

import (
	"math"
	"slices"
)

// tailLadder is the set of percentiles the tail metric may report, from
// the highest down. The benchmark reports the highest one that leaves at
// least tailMinBeyond samples above it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile for it to be more than one or two unlucky requests.
const tailMinBeyond = 10

// tailPercentile applies the tail rule to a run length of n requests: the
// highest ladder percentile p with n*(1-p/100) >= tailMinBeyond. A run too
// short for any of them reports the median. The benchmark evaluates it on
// each workload's planned request count, not on the count a run happened
// to reach, so the percentile a workload reports never changes between
// runs.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= tailMinBeyond-1e-9 {
			return p
		}
	}
	return 50
}

// beyond counts the samples strictly above the p-th percentile of xs.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	k := 0
	for _, x := range xs {
		if x > q {
			k++
		}
	}
	return k
}

// percentile returns the p-th percentile of xs (0 <= p <= 100) with
// linear interpolation between closest ranks, the rule of Python's
// statistics.quantiles(method="inclusive") and numpy's default. xs is not
// modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the default "exclusive" method), the spread rule the
// benchmark's bounds are judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(j int) float64 { // statistics.quantiles, method="exclusive"
		m := n + 1
		idx := j * m / 4
		delta := float64(j*m%4) / 4
		switch {
		case idx < 1:
			return s[0]
		case idx >= n:
			return s[n-1]
		}
		return s[idx-1] + delta*(s[idx]-s[idx-1])
	}
	return at(1), at(3)
}

// relSpread is the distance between the quartiles as a share of the
// median: the run-to-run spread the benchmark's bounds are checked
// against.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
