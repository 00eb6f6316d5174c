package main

import (
	"math"
	"testing"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 20, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the rule must sort
		}
		got, err := tailOf(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want %d", n, beyond, got.Value, tailBeyond)
		}
		if got.N != n {
			t.Errorf("n=%d: tail reports %d samples", n, got.N)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); math.Abs(got.Pct-want) > 1e-9 {
			t.Errorf("n=%d: percentile %v, want %v", n, got.Pct, want)
		}
	}
}

func TestTailNeedsMoreThanTenSamples(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		got, err := tailOf(make([]float64, n))
		if err == nil {
			t.Errorf("n=%d: tail %v, want an error", n, got)
		}
		if got.N != n {
			t.Errorf("n=%d: tail reports %d samples", n, got.N)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50} // unsorted, so the rule must sort
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.1, 14}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// TestSustainedIgnoresFastShare checks the throughput rule against the
// host's two speeds: once a tenth of the blocks run slow, the sustained
// rate is the slow speed whatever the fast share, where the median jumps.
func TestSustainedIgnoresFastShare(t *testing.T) {
	for _, fast := range []int{0, 30, 60, 89} {
		rates := make([]float64, 100)
		for i := range rates {
			rates[i] = 900
			if i < fast {
				rates[i] = 1500
			}
		}
		if got := sustained(rates); got != 900 {
			t.Errorf("%d%% fast blocks: sustained %v, want 900", fast, got)
		}
	}
}

func TestDeriveSeparatesStreams(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for salt := uint64(0); salt < 8; salt++ {
			v := derive(seed, salt)
			if seen[v] {
				t.Fatalf("derive(%d, %d) repeats %d", seed, salt, v)
			}
			seen[v] = true
			if derive(seed, salt) != v {
				t.Fatalf("derive(%d, %d) is not a function of its inputs", seed, salt)
			}
		}
	}
}
