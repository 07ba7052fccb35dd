package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads computed here match the ones an outside checker computes. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), false
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4 // negative past the ends: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// relIQR returns the distance between the quartiles of xs as a share of
// their median: the run-to-run spread the benchmark's bounds are set
// against.
func relIQR(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	if !ok {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(median(xs))
}

// tail is a high percentile of a sample of round times.
type tail struct {
	Value      float64 // the sample value at that percentile
	Percentile float64 // in [0, 100)
	N          int     // sample count
	Beyond     int     // samples above Value
	Blocks     int     // blocks the sample was cut into (blockTail)
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile, so that it rests on more than a single outlier.
const tailBeyond = 10

// tailPercentile returns the highest percentile of xs with at least
// tailBeyond samples above it: the (tailBeyond+1)-th largest value. ok is
// false when xs has too few samples for any such percentile.
func tailPercentile(xs []float64) (tail, bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{Value: math.NaN(), N: n}, false
	}
	s := sortedCopy(xs)
	return tail{Value: s[n-tailBeyond-1], Percentile: 100 * float64(n-tailBeyond) / float64(n),
		N: n, Beyond: tailBeyond, Blocks: 1}, true
}

// tailBlock is the fewest consecutive samples blockTail takes one tail over.
const tailBlock = 100

// blockTail cuts xs, in order, into as many blocks of at least tailBlock
// samples as it holds, of equal size give or take one (fewer than
// 2·tailBlock samples make one block), and returns the median of the
// blocks' tailPercentile values and percentiles. A run of thousands of
// millisecond rounds so reports about p89 of each stretch of 100 rounds,
// and a burst of machine noise that slows a few stretches moves the median
// of the stretches little, where it would move a tail of all rounds
// pooled.
func blockTail(xs []float64) (tail, bool) {
	n := len(xs)
	k := max(1, n/tailBlock)
	var vals, pcts []float64
	for i := 0; i < k; i++ {
		tl, ok := tailPercentile(xs[i*n/k : (i+1)*n/k])
		if !ok {
			return tail{Value: math.NaN(), N: n}, false
		}
		vals = append(vals, tl.Value)
		pcts = append(pcts, tl.Percentile)
	}
	return tail{Value: median(vals), Percentile: median(pcts), N: n, Beyond: tailBeyond, Blocks: k}, true
}

// evalPoint is one evaluation of the global model during a run.
type evalPoint struct {
	At    float64 // seconds since the run started
	Loss  float64 // global training loss F̄(w)
	Acc   float64 // test accuracy
	Round int
}

// target is a workload's quality target: a run meets it at the first
// evaluation whose training loss is at most MaxLoss.
type target struct {
	MaxLoss float64
}

// firstMeeting returns the first evaluation, in evaluation order, that
// meets t, or ok=false if none does. NaN losses never meet it.
func (t target) firstMeeting(points []evalPoint) (evalPoint, bool) {
	for _, p := range points {
		if p.Loss <= t.MaxLoss {
			return p, true
		}
	}
	return evalPoint{}, false
}

// worseBy returns how much worse got is than base, as a share of base, for
// a metric where "lower" or "higher" is better; negative means better.
func worseBy(base, got float64, better string) float64 {
	d := (got - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// withinBound reports whether got is no worse than base by more than
// bound (a share of base).
func withinBound(base, got, bound float64, better string) bool {
	return worseBy(base, got, better) <= bound
}
