package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40, 39, …, 1: order must not matter
	}
	tl, ok := tailPercentile(xs)
	if !ok {
		t.Fatal("40 samples should have a tail percentile")
	}
	if tl.Value != 30 || tl.N != 40 || tl.Percentile != 75 || tl.Beyond != tailBeyond {
		t.Fatalf("tail = %+v, want value 30 at p75 of 40", tl)
	}
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
}

func TestBlockTailIsMedianOfBlockTails(t *testing.T) {
	// 350 samples make three blocks of 116, 117 and 117; the middle one
	// holds a burst of slow rounds.
	xs := make([]float64, 350)
	for i := range xs {
		xs[i] = float64(i % 50)
	}
	for i := 120; i < 220; i++ {
		xs[i] = 1000
	}
	tl, ok := blockTail(xs)
	if !ok || tl.Blocks != 3 || tl.N != 350 || tl.Beyond != tailBeyond {
		t.Fatalf("blockTail = %+v, %v; want 3 blocks of 350 samples", tl, ok)
	}
	var want []float64
	for _, b := range [][]float64{xs[:116], xs[116:233], xs[233:]} {
		bt, _ := tailPercentile(b)
		want = append(want, bt.Value)
	}
	if tl.Value != median(want) || tl.Value >= 1000 {
		t.Fatalf("blockTail = %v, want the median block tail %v (block tails %v)", tl.Value, median(want), want)
	}
	if pooled, _ := tailPercentile(xs); pooled.Value != 1000 {
		t.Fatalf("pooled tail = %v; the burst should own it", pooled.Value)
	}
}

func TestBlockTailBelowTwoBlocksPoolsAll(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tl, ok := blockTail(xs)
	pooled, _ := tailPercentile(xs)
	if !ok || tl.Blocks != 1 || tl.Value != pooled.Value || tl.Value != 189 {
		t.Fatalf("blockTail of 1..199 = %+v, want the pooled tail 189", tl)
	}
	if _, ok := blockTail(make([]float64, 10)); ok {
		t.Fatal("10 samples cannot leave 10 beyond any percentile")
	}
}

func TestTailPercentileNeedsElevenSamples(t *testing.T) {
	if _, ok := tailPercentile(make([]float64, 10)); ok {
		t.Fatal("10 samples cannot leave 10 beyond any percentile")
	}
	tl, ok := tailPercentile([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11})
	if !ok || tl.Value != 1 {
		t.Fatalf("11 samples: tail %+v ok=%v, want the minimum", tl, ok)
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5}, // Python extrapolates past the ends
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3, ok := quartiles(tc.xs)
		if !ok || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

func TestRelIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := relIQR(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("relIQR = %v, want %v", got, want)
	}
	if got := relIQR([]float64{3, 3, 3, 3}); got != 0 {
		t.Fatalf("constant sample: relIQR = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median should be NaN")
	}
}

func TestFirstMeetingTarget(t *testing.T) {
	tg := target{MaxLoss: 1.5}
	points := []evalPoint{
		{At: 0, Loss: 2.3, Round: 0},
		{At: 1, Loss: math.NaN(), Round: 5},
		{At: 2, Loss: 1.6, Round: 10},
		{At: 3, Loss: 1.5, Round: 15}, // meets it exactly
		{At: 4, Loss: 1.4, Round: 20},
		{At: 5, Loss: 1.7, Round: 25},
	}
	p, ok := tg.firstMeeting(points)
	if !ok || p.At != 3 || p.Round != 15 {
		t.Fatalf("firstMeeting = %+v, %v; want the round-15 point at 3 s", p, ok)
	}
	if _, ok := tg.firstMeeting(points[:3]); ok {
		t.Fatal("no point meets the target, yet one was found")
	}
}

func TestBoundComparison(t *testing.T) {
	for _, tc := range []struct {
		base, got, bound float64
		better           string
		want             bool
	}{
		{100, 110, 0.1, "lower", true},   // exactly at the bound
		{100, 111, 0.1, "lower", false},  // a time 11% slower
		{100, 50, 0.1, "lower", true},    // faster is never a regression
		{100, 90, 0.1, "higher", true},   // a rate exactly 10% lower
		{100, 89, 0.1, "higher", false},  // a rate 11% lower
		{100, 150, 0.1, "higher", true},  // higher rate is better
		{0.5, 0.56, 0.1, "lower", false}, // share of a small base
	} {
		if got := withinBound(tc.base, tc.got, tc.bound, tc.better); got != tc.want {
			t.Errorf("withinBound(%v, %v, %v, %s) = %v, want %v (worse by %v)",
				tc.base, tc.got, tc.bound, tc.better, got, tc.want, worseBy(tc.base, tc.got, tc.better))
		}
	}
}
