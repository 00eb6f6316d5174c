package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// sustainedQuantile places a phase's throughput among its block rates:
// the rate it sustains in nine blocks of ten. The host's slow phases
// (WORKLOADS.md, "Host speed") last seconds to minutes, and a run's
// share of them drifts, so a median or a mean follows that share; the
// slow side of the block rates stays put as long as a tenth of the run
// is slow.
const sustainedQuantile = 0.10

// sustained is the throughput of a phase measured in blocks of fixed
// work: the sustainedQuantile of the blocks' rates.
func sustained(rates []float64) float64 { return quantile(rates, sustainedQuantile) }

// logBlocks logs how a phase's block rates spread around their
// sustained rate, so a reader can see how much of a run was slow.
func logBlocks(what string, rates []float64) {
	logf("%s: %d blocks, rate p5 %.6g, p10 %.6g (sustained), p50 %.6g, p90 %.6g", what, len(rates),
		quantile(rates, 0.05), quantile(rates, 0.10), quantile(rates, 0.5), quantile(rates, 0.9))
}

// quantile returns the q-quantile of xs for 0 <= q <= 1, interpolating
// linearly between order statistics; zero for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); zero for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the highest percentile of a sample set that still has at
// least tailBeyond samples beyond it.
type tail struct {
	Value float64 // the sample at that percentile
	Pct   float64 // its percentile, 0-100
	N     int     // how many samples the set holds
}

// tailOf applies the tail rule: in ascending order, the sample with
// exactly tailBeyond samples after it. Sets too small to leave that
// many beyond any sample have no tail.
func tailOf(xs []float64) (tail, error) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{N: n}, fmt.Errorf("tail needs more than %d samples, have %d", tailBeyond, n)
	}
	s := sortedCopy(xs)
	k := n - 1 - tailBeyond
	return tail{Value: s[k], Pct: 100 * float64(k+1) / float64(n), N: n}, nil
}

// String renders the tail with its percentile and sample count.
func (t tail) String() string {
	return fmt.Sprintf("%.4g (p%.1f of %d)", t.Value, t.Pct, t.N)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio divides, reading zero for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
