package risk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestValueZeroCrossing(t *testing.T) {
	// risk(112.5) should be ~0 by construction of Eq. 5.
	if v := Value(112.5); v > 0.01 {
		t.Errorf("Value(112.5) = %v, want ~0", v)
	}
}

func TestValueSymmetryDirections(t *testing.T) {
	// Risk grows as BG departs from 112.5 in either direction.
	if Value(50) <= Value(80) {
		t.Error("risk should increase as BG drops further below 112.5")
	}
	if Value(400) <= Value(200) {
		t.Error("risk should increase as BG rises further above 112.5")
	}
}

func TestValueKnownPoints(t *testing.T) {
	// Severe hypoglycemia carries very high risk; euglycemia near zero.
	if v := Value(40); v < 20 {
		t.Errorf("Value(40) = %v, want substantial risk", v)
	}
	if v := Value(110); v > 0.2 {
		t.Errorf("Value(110) = %v, want near zero", v)
	}
	if v := Value(0); v != 100 {
		t.Errorf("Value(0) = %v, want clamp 100", v)
	}
	if v := Value(-10); v != 100 {
		t.Errorf("Value(-10) = %v, want clamp 100", v)
	}
}

func TestSigned(t *testing.T) {
	if s := Signed(60); s >= 0 {
		t.Errorf("Signed(60) = %v, want negative (hypo branch)", s)
	}
	if s := Signed(300); s <= 0 {
		t.Errorf("Signed(300) = %v, want positive (hyper branch)", s)
	}
}

func TestIndices(t *testing.T) {
	// All-low window: LBGI high, HBGI zero.
	low := []float64{50, 55, 60, 52}
	lbgi, hbgi := Indices(low)
	if lbgi <= 5 {
		t.Errorf("LBGI(%v) = %v, want > 5", low, lbgi)
	}
	if hbgi != 0 {
		t.Errorf("HBGI(%v) = %v, want 0", low, hbgi)
	}
	// All-high window: HBGI high, LBGI zero.
	high := []float64{300, 320, 310, 305}
	lbgi, hbgi = Indices(high)
	if hbgi <= 9 {
		t.Errorf("HBGI(%v) = %v, want > 9", high, hbgi)
	}
	if lbgi != 0 {
		t.Errorf("LBGI(%v) = %v, want 0", high, lbgi)
	}
	// Euglycemic window: both near zero.
	eu := []float64{100, 110, 120, 115}
	lbgi, hbgi = Indices(eu)
	if lbgi > 1 || hbgi > 1 {
		t.Errorf("Indices(%v) = %v, %v, want both < 1", eu, lbgi, hbgi)
	}
	// Empty window.
	lbgi, hbgi = Indices(nil)
	if lbgi != 0 || hbgi != 0 {
		t.Error("Indices(nil) should be zero")
	}
}

func TestMeanRiskIndex(t *testing.T) {
	if v := MeanRiskIndex(nil); v != 0 {
		t.Errorf("MeanRiskIndex(nil) = %v, want 0", v)
	}
	if v := MeanRiskIndex([]float64{112.5, 112.5}); v > 0.01 {
		t.Errorf("MeanRiskIndex at zero-risk BG = %v, want ~0", v)
	}
	if MeanRiskIndex([]float64{40, 40}) <= MeanRiskIndex([]float64{90, 90}) {
		t.Error("severe hypo should carry more mean risk than mild")
	}
}

func mkTrace(bgs []float64) *trace.Trace {
	tr := &trace.Trace{PatientID: "p", CycleMin: 5}
	for i, bg := range bgs {
		tr.Samples = append(tr.Samples, trace.Sample{Step: i, BG: bg, CGM: bg})
	}
	return tr
}

func TestLabelHypoTrend(t *testing.T) {
	// BG sliding into severe hypoglycemia: H1 labels expected in the tail.
	bgs := make([]float64, 40)
	for i := range bgs {
		bgs[i] = 140 - 3*float64(i) // 140 down to 23
	}
	tr := mkTrace(bgs)
	Labeler{}.Label(tr)
	if !tr.Hazardous() {
		t.Fatal("descending-to-hypo trace should be hazardous")
	}
	if h := tr.DominantHazard(); h != trace.HazardH1 {
		t.Errorf("DominantHazard = %v, want H1", h)
	}
	// Early euglycemic samples must remain unlabeled.
	if tr.Samples[0].Hazard != trace.HazardNone || tr.Samples[5].Hazard != trace.HazardNone {
		t.Error("early euglycemic samples must not be labeled")
	}
}

func TestLabelHyperTrend(t *testing.T) {
	bgs := make([]float64, 40)
	for i := range bgs {
		bgs[i] = 150 + 8*float64(i) // 150 up to 462
	}
	tr := mkTrace(bgs)
	Labeler{}.Label(tr)
	if !tr.Hazardous() {
		t.Fatal("ascending-to-hyper trace should be hazardous")
	}
	if h := tr.DominantHazard(); h != trace.HazardH2 {
		t.Errorf("DominantHazard = %v, want H2", h)
	}
}

func TestLabelEuglycemicTraceIsClean(t *testing.T) {
	bgs := make([]float64, 40)
	for i := range bgs {
		bgs[i] = 115 + 10*math.Sin(float64(i)/5)
	}
	tr := mkTrace(bgs)
	Labeler{}.Label(tr)
	if tr.Hazardous() {
		t.Errorf("euglycemic trace labeled hazardous; first at %d", tr.FirstHazardStep())
	}
}

func TestLabelDecreasingRiskNotRelabeled(t *testing.T) {
	// Recovery from hyperglycemia: indices decrease, so beyond the first
	// window the "kept increasing" condition must suppress labels.
	bgs := make([]float64, 40)
	for i := range bgs {
		bgs[i] = 400 - 8*float64(i) // 400 down to 88
	}
	tr := mkTrace(bgs)
	Labeler{}.Label(tr)
	// The first window is allowed to be hazardous (hazard predates the
	// trace); the final samples (euglycemic, decreasing risk) must be clean.
	last := tr.Samples[len(tr.Samples)-1]
	if last.Hazard != trace.HazardNone {
		t.Errorf("recovering trace tail labeled %v", last.Hazard)
	}
}

func TestLabelIdempotentAndResets(t *testing.T) {
	bgs := make([]float64, 30)
	for i := range bgs {
		bgs[i] = 140 - 4*float64(i)
	}
	tr := mkTrace(bgs)
	l := Labeler{}
	l.Label(tr)
	first := make([]trace.HazardType, tr.Len())
	for i := range tr.Samples {
		first[i] = tr.Samples[i].Hazard
	}
	l.Label(tr)
	for i := range tr.Samples {
		if tr.Samples[i].Hazard != first[i] {
			t.Fatalf("labeling not idempotent at %d", i)
		}
	}
}

func TestLabelShortTrace(t *testing.T) {
	tr := mkTrace([]float64{45, 44, 43}) // shorter than window
	Labeler{}.Label(tr)
	if !tr.Hazardous() {
		t.Error("short severe-hypo trace should still be labeled")
	}
	Labeler{}.Label(&trace.Trace{}) // empty trace must not panic
}

func TestLabelAll(t *testing.T) {
	traces := []*trace.Trace{
		mkTrace([]float64{45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34}),
		mkTrace([]float64{115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115}),
	}
	Labeler{}.LabelAll(traces)
	if !traces[0].Hazardous() {
		t.Error("hypo trace should be hazardous")
	}
	if traces[1].Hazardous() {
		t.Error("euglycemic trace should be clean")
	}
}

// Property: risk is non-negative, bounded by 100, and signed risk matches
// the branch of the BG value.
func TestRiskProperties(t *testing.T) {
	f := func(raw uint16) bool {
		bg := 20 + float64(raw%600) // 20..619 mg/dL
		v := Value(bg)
		if v < 0 || v > 100 {
			return false
		}
		s := Signed(bg)
		if bg < 112.5 && s > 0 {
			return false
		}
		if bg >= 112.5 && s < 0 {
			return false
		}
		return math.Abs(math.Abs(s)-v) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LBGI and HBGI are non-negative and bounded by the max risk.
func TestIndicesProperty(t *testing.T) {
	f := func(raws []uint16) bool {
		if len(raws) == 0 {
			return true
		}
		bgs := make([]float64, len(raws))
		for i, r := range raws {
			bgs[i] = 20 + float64(r%600)
		}
		lbgi, hbgi := Indices(bgs)
		return lbgi >= 0 && hbgi >= 0 && lbgi <= 100 && hbgi <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// referenceLabel is the per-window labeler Label must reproduce: every
// window recomputes Indices from its raw BG readings.
func referenceLabel(l Labeler, tr *trace.Trace) {
	l = l.fill()
	n := tr.Len()
	if n == 0 {
		return
	}
	for i := range tr.Samples {
		tr.Samples[i].Hazard = trace.HazardNone
	}
	bgs := tr.BGSeries()
	w := l.Window
	if w > n {
		w = n
	}
	prevL, prevH := math.Inf(1), math.Inf(1)
	for end := w; end <= n; end++ {
		lo := end - w
		lbgi, hbgi := Indices(bgs[lo:end])
		var h trace.HazardType
		switch {
		case lbgi > l.LBGIThreshold && lbgi >= prevL:
			h = trace.HazardH1
		case hbgi > l.HBGIThreshold && hbgi >= prevH:
			h = trace.HazardH2
		}
		if end == w {
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

// randomBG draws a BG reading: mostly a random walk across the hypo and
// hyper ranges, sometimes a hostile value (≤ 0, NaN, ±Inf).
func randomBG(rng *rand.Rand, prev float64) float64 {
	switch rng.Intn(40) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return -10 * rng.Float64() // ≤ 0, zero included
	}
	if math.IsNaN(prev) || math.IsInf(prev, 0) || prev <= 0 || rng.Intn(10) == 0 {
		return 20 + 480*rng.Float64()
	}
	bg := prev + 25*rng.NormFloat64()
	return math.Max(15, math.Min(600, bg))
}

// TestLabelMatchesPerWindowReference: Label, which computes each
// sample's risk once, must label every sample exactly as the per-window
// Indices reference does — on random traces at and around the window
// length, with hostile BG readings, under default and non-default
// windows and thresholds.
func TestLabelMatchesPerWindowReference(t *testing.T) {
	labelers := []Labeler{
		{},
		{Window: 6},
		{Window: 1},
		{Window: 24, LBGIThreshold: 2.5, HBGIThreshold: 4},
		{LBGIThreshold: 0.5, HBGIThreshold: 15},
	}
	rng := rand.New(rand.NewSource(1))
	hazardous := 0
	for _, n := range []int{0, 1, 11, 12, 13, 150} {
		for rep := 0; rep < 40; rep++ {
			bgs := make([]float64, n)
			prev := 20 + 480*rng.Float64()
			for i := range bgs {
				bgs[i] = randomBG(rng, prev)
				prev = bgs[i]
			}
			for _, l := range labelers {
				got, want := mkTrace(bgs), mkTrace(bgs)
				l.Label(got)
				referenceLabel(l, want)
				for i := range want.Samples {
					if got.Samples[i].Hazard != want.Samples[i].Hazard {
						t.Fatalf("n=%d %+v sample %d (BG %v): label %v, reference %v",
							n, l, i, bgs[i], got.Samples[i].Hazard, want.Samples[i].Hazard)
					}
				}
				if want.Hazardous() {
					hazardous++
				}
			}
		}
	}
	if hazardous == 0 {
		t.Fatal("no reference trace was hazardous — comparison is vacuous")
	}
}

// BenchmarkLabel labels one 150-cycle trace, the length of a campaign
// session, that swings across both risk branches.
func BenchmarkLabel(b *testing.B) {
	bgs := make([]float64, 150)
	for i := range bgs {
		bgs[i] = 180 + 140*math.Sin(float64(i)/12)
	}
	tr := mkTrace(bgs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Labeler{}.Label(tr)
	}
}
