package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileHandComputed(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2},  // rank ceil(2) = 2
		{[]float64{1, 2, 3, 4}, 0.75, 3}, // rank 3
		{[]float64{1, 2, 3, 4}, 0.76, 4}, // rank ceil(3.04) = 4
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9, 90},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.91, 100},
		{[]float64{5, 5, 5, 9}, 0.99, 9},
		{[]float64{2, 4}, 0.01, 2}, // rank floors at 1
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// TestPercentileProperties: the result is one of the samples, lies in
// [min, max], and never decreases as q grows.
func TestPercentileProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	prop := func(raw []float64, q1, q2 float64) bool {
		xs := raw[:0:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa, qb := math.Abs(math.Mod(q1, 1)), math.Abs(math.Mod(q2, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		a, b := percentile(xs, qa), percentile(xs, qb)
		member := false
		for _, x := range xs {
			member = member || x == a
		}
		return member && a >= s[0] && b <= s[len(s)-1] && a <= b
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
