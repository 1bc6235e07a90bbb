package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondTail is how many samples must lie strictly beyond a tail
// percentile before that percentile is reported.
const minBeyondTail = 10

// timing is one sample of durations in seconds. Every statistic a
// timing reports (median and tail alike) is computed from the same
// sorted copy, so a tail can never be taken from a different sample than
// its median.
type timing struct {
	sorted []float64
}

func newTiming(seconds []float64) timing {
	s := append([]float64(nil), seconds...)
	sort.Float64s(s)
	return timing{sorted: s}
}

// n is the sample count.
func (t timing) n() int { return len(t.sorted) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks. It is monotone in q.
func (t timing) quantile(q float64) float64 {
	n := len(t.sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n == 1:
		return t.sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return t.sorted[n-1]
	}
	frac := pos - float64(lo)
	return t.sorted[lo] + frac*(t.sorted[lo+1]-t.sorted[lo])
}

func (t timing) median() float64 { return t.quantile(0.5) }

// beyond counts the samples strictly greater than v.
func (t timing) beyond(v float64) int {
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i] > v })
	return len(t.sorted) - i
}

// tail returns the q-quantile when at least minBeyondTail samples lie
// beyond it. Otherwise ok is false and why says what is missing, so the
// omission can be reported instead of a tail resting on a handful of
// samples.
func (t timing) tail(q float64) (v float64, ok bool, why string) {
	v = t.quantile(q)
	if t.n() == 0 {
		return 0, false, "no samples"
	}
	if b := t.beyond(v); b < minBeyondTail {
		return 0, false, fmt.Sprintf("only %d of %d samples lie beyond p%g, %d needed", b, t.n(), q*100, minBeyondTail)
	}
	if v < t.median() {
		// Unreachable for a monotone quantile; kept as the stated invariant.
		return 0, false, fmt.Sprintf("p%g %.6g below p50 %.6g", q*100, v, t.median())
	}
	return v, true, ""
}

// median returns the middle of a small set of repeated measurements
// (set-up builds), interpolating between the two middle values.
func median(xs []float64) float64 { return newTiming(xs).median() }
