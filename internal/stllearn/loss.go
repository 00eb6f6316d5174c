// Package stllearn implements the paper's data-driven refinement of STL
// thresholds (Section III-C2): hazardous traces from fault-injection
// campaigns provide negative examples; per rule, a scalar boundary β is
// learned with L-BFGS-B by minimizing a tightness loss over the
// satisfaction margins r = ±(µ(d(t)) − β).
//
//fleetvet:deterministic
package stllearn

import (
	"fmt"
	"math"
)

// Loss is a pointwise tightness loss over the satisfaction margin r of a
// learnable predicate. Minimizing the expected loss drives thresholds to
// sit tightly above (below) the hazardous examples. Learn and
// LearnPerPatient call Value from several goroutines at once.
type Loss interface {
	Name() string
	Value(r float64) float64
}

// TMEE is the paper's Tight Mean Exponential Error (Eq. 4):
//
//	loss(r) = e^{−r} + (r−1)/(1 + e^{−2r})
//
// An exponential wall for r < 0 guarantees hazardous examples stay inside
// the learned boundary, while the saturating linear term for r > 0 pulls
// the boundary tight; the minimum sits at a small positive margin
// (≈ 0.45), visible in Fig. 3b.
type TMEE struct{}

// Name implements Loss.
func (TMEE) Name() string { return "TMEE" }

// Value implements Loss.
func (TMEE) Value(r float64) float64 {
	return math.Exp(-r) + (r-1)/(1+math.Exp(-2*r))
}

// TeLEx is the tightness metric of the TeLEx system (Jha et al.), which
// the paper compares against: same exponential wall for violations but a
// much shallower pull toward zero margin, so learned thresholds carry
// slack unless manually adjusted (Fig. 3b).
type TeLEx struct{}

// Name implements Loss.
func (TeLEx) Name() string { return "TeLEx" }

// Value implements Loss.
func (TeLEx) Value(r float64) float64 {
	return math.Exp(-r) + 0.1*r
}

// MSE is the mean-squared-error strawman of Fig. 3a: symmetric around
// r = 0, so minimizing it places the boundary in the middle of the
// examples and violates the STL formula on roughly half of them.
type MSE struct{}

// Name implements Loss.
func (MSE) Name() string { return "MSE" }

// Value implements Loss.
func (MSE) Value(r float64) float64 { return r * r }

// MAE is the mean-absolute-error strawman of Fig. 3a.
type MAE struct{}

// Name implements Loss.
func (MAE) Name() string { return "MAE" }

// Value implements Loss.
func (MAE) Value(r float64) float64 { return math.Abs(r) }

// LossByName resolves a loss by its display name.
func LossByName(name string) (Loss, error) {
	switch name {
	case "TMEE", "tmee":
		return TMEE{}, nil
	case "TeLEx", "telex":
		return TeLEx{}, nil
	case "MSE", "mse":
		return MSE{}, nil
	case "MAE", "mae":
		return MAE{}, nil
	default:
		return nil, fmt.Errorf("stllearn: unknown loss %q", name)
	}
}

// Curve samples the loss over margins [lo, hi] with n points; the series
// reproduces Fig. 3.
func Curve(l Loss, lo, hi float64, n int) (rs, values []float64) {
	if n < 2 {
		n = 2
	}
	rs = make([]float64, n)
	values = make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		r := lo + float64(i)*step
		rs[i] = r
		values[i] = l.Value(r)
	}
	return rs, values
}
