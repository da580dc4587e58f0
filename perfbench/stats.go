package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean something.
const tailBeyond = 10

// tail reports the highest percentile with at least tailBeyond samples
// beyond it, floored at the median: with fewer than 2×tailBeyond samples
// no percentile above the median qualifies, and the median is reported.
// The second result is the percentile used, in percent.
func tail(xs []float64) (float64, float64) {
	n := len(xs)
	q := 0.5
	if n >= 2*tailBeyond {
		q = float64(n-tailBeyond) / float64(n)
	}
	return quantile(xs, q), 100 * q
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
