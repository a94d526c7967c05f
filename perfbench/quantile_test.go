package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples above
		{999, 0.99, 990, false}, // only 9 above
		{20, 0.50, 10, true},    // smallest n with a reportable median
		{19, 0.50, 10, false},   // 9 above
		{10000, 0.999, 9990, true},
		{9999, 0.999, 9990, false}, // 9 above
		{1, 0.5, 1, false},
	} {
		got, ok := quantile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d q=%v: got (%v,%v), want (%v,%v)", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuantileIsAnObservedSampleNeverAboveMax(t *testing.T) {
	// A heavy tail: the p99 must be one of the samples, not a bucket edge
	// rounded up past the largest value.
	xs := make([]float64, 0, 2000)
	for i := 0; i < 1990; i++ {
		xs = append(xs, 1.0)
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, 3.7)
	}
	s := sorted(xs)
	for _, q := range []float64{0.5, 0.99, 0.995, 1} {
		v, _ := quantile(s, q)
		if v > s[len(s)-1] {
			t.Fatalf("q=%v: %v exceeds max %v", q, v, s[len(s)-1])
		}
		found := false
		for _, x := range s {
			found = found || x == v
		}
		if !found {
			t.Fatalf("q=%v: %v is not an observed sample", q, v)
		}
	}
	if v, ok := quantile(s, 0.99); v != 1.0 || !ok {
		t.Fatalf("p99 = (%v,%v), want (1,true)", v, ok)
	}
	if _, ok := quantile(s, 0.999); ok {
		t.Fatal("p99.9 of 2000 samples has only 2 beyond it and must not be reported")
	}
}

func TestQuantileEmptyAndMedian(t *testing.T) {
	if _, ok := quantile(nil, 0.5); ok {
		t.Fatal("quantile of no samples reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
