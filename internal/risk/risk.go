// Package risk implements the Blood Glucose Risk Index of Kovatchev et al.
// as used by the paper (Section IV-C2, Eq. 5) to label simulation samples
// as hazardous, plus the LBGI/HBGI window statistics and the average-risk
// ingredients of Eq. 9.
package risk

import (
	"math"

	"repro/internal/trace"
)

// Default thresholds from the paper (footnote 1, citing Kovatchev):
// a window is hazardous when LBGI > 5 (hypoglycemia risk, H1) or
// HBGI > 9 (hyperglycemia risk, H2) and the index keeps increasing.
const (
	DefaultLBGIThreshold = 5.0
	DefaultHBGIThreshold = 9.0
	// DefaultWindow is the labeling window length in samples
	// (12 five-minute cycles = one hour, per Section IV-C2).
	DefaultWindow = 12
)

// riskZeroBG is the symmetrized-scale zero crossing: risk(112.5) == 0.
const riskZeroBG = 112.5

// Value computes the BG risk function of Eq. 5:
//
//	risk(BG) = 10 * (1.509 * ((ln BG)^1.084 - 5.381))^2
//
// BG is in mg/dL and must be positive; non-positive input returns the
// maximum clamped risk (100) on the hypoglycemic side semantics of Signed.
func Value(bg float64) float64 {
	if bg <= 0 {
		return 100
	}
	f := 1.509 * (math.Pow(math.Log(bg), 1.084) - 5.381)
	r := 10 * f * f
	if r > 100 {
		r = 100
	}
	return r
}

// Signed returns the signed risk: negative on the hypoglycemic branch
// (BG < 112.5 mg/dL) and positive on the hyperglycemic branch, matching
// the paper's "left and right branches of the BG risk function".
func Signed(bg float64) float64 {
	v := Value(bg)
	if bg < riskZeroBG {
		return -v
	}
	return v
}

// Indices computes the Low and High BG Indices over a window of BG
// readings: the mean of the left-branch and right-branch risks.
// Readings outside each branch contribute zero to that branch, per the
// standard Kovatchev definition.
func Indices(window []float64) (lbgi, hbgi float64) {
	if len(window) == 0 {
		return 0, 0
	}
	for _, bg := range window {
		s := Signed(bg)
		if s < 0 {
			lbgi += -s
		} else {
			hbgi += s
		}
	}
	n := float64(len(window))
	return lbgi / n, hbgi / n
}

// MeanRiskIndex returns the average (unsigned) risk index of a BG series,
// the per-simulation \bar{RI} term of the Average Risk metric (Eq. 9).
func MeanRiskIndex(bgs []float64) float64 {
	if len(bgs) == 0 {
		return 0
	}
	var sum float64
	for _, bg := range bgs {
		sum += Value(bg)
	}
	return sum / float64(len(bgs))
}

// Labeler configures hazard labeling.
type Labeler struct {
	// Window is the number of consecutive samples whose LBGI/HBGI are
	// examined (default DefaultWindow).
	Window int
	// LBGIThreshold and HBGIThreshold are the high-risk cutoffs
	// (defaults 5 and 9).
	LBGIThreshold float64
	HBGIThreshold float64
}

// fill applies defaults for zero fields.
func (l Labeler) fill() Labeler {
	if l.Window <= 0 {
		l.Window = DefaultWindow
	}
	if l.LBGIThreshold <= 0 {
		l.LBGIThreshold = DefaultLBGIThreshold
	}
	if l.HBGIThreshold <= 0 {
		l.HBGIThreshold = DefaultHBGIThreshold
	}
	return l
}

// signedIndices is Indices over precomputed Signed values: the same
// sums in the same order, divided the same way, so it returns Indices'
// bits for the BG window the values came from.
func signedIndices(signed []float64) (lbgi, hbgi float64) {
	for _, s := range signed {
		if s < 0 {
			lbgi += -s
		} else {
			hbgi += s
		}
	}
	n := float64(len(signed))
	return lbgi / n, hbgi / n
}

// Label assigns hazard labels to every sample of the trace, following
// Section IV-C2: a window of BG readings is marked hazardous when LBGI or
// HBGI crosses its high-risk threshold while increasing relative to the
// previous window. All samples of a flagged window receive the hazard
// label (H1 for LBGI, H2 for HBGI; H1 wins if both fire).
//
// Each sample's risk is computed once and every window re-sums its own
// values, exactly as Indices would. A sliding add/subtract sum would
// round differently and could flip the increasing-risk comparisons.
func (l Labeler) Label(tr *trace.Trace) {
	l = l.fill()
	n := tr.Len()
	if n == 0 {
		return
	}
	for i := range tr.Samples {
		tr.Samples[i].Hazard = trace.HazardNone
	}
	signed := tr.BGSeries()
	for i, bg := range signed {
		signed[i] = Signed(bg)
	}
	w := l.Window
	if w > n {
		w = n
	}
	prevL, prevH := math.Inf(1), math.Inf(1)
	for end := w; end <= n; end++ {
		lo := end - w
		lbgi, hbgi := signedIndices(signed[lo:end])
		var h trace.HazardType
		switch {
		case lbgi > l.LBGIThreshold && lbgi >= prevL:
			h = trace.HazardH1
		case hbgi > l.HBGIThreshold && hbgi >= prevH:
			h = trace.HazardH2
		}
		if end == w {
			// First window has no predecessor: threshold crossing alone
			// is enough (the hazard may predate the simulation window).
			switch {
			case lbgi > l.LBGIThreshold:
				h = trace.HazardH1
			case hbgi > l.HBGIThreshold:
				h = trace.HazardH2
			}
		}
		if h != trace.HazardNone {
			for i := lo; i < end; i++ {
				if tr.Samples[i].Hazard == trace.HazardNone {
					tr.Samples[i].Hazard = h
				}
			}
		}
		prevL, prevH = lbgi, hbgi
	}
}

// LabelAll labels a batch of traces.
func (l Labeler) LabelAll(traces []*trace.Trace) {
	for _, tr := range traces {
		l.Label(tr)
	}
}
