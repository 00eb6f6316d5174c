package monitor

import (
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/scs"
	"repro/internal/trace"
)

// features is the Eq. 7 feature vector of an observation.
func features(o Observation) []float64 {
	x := make([]float64, FeatureDim)
	featuresInto(x, o)
	return x
}

func newCAWT(t *testing.T, th scs.Thresholds) *ContextAwareLane {
	t.Helper()
	m, err := NewCAWT(scs.TableI(), th, scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCAWTConstructionValidation(t *testing.T) {
	if _, err := NewCAWT(nil, nil, scs.Params{}); err == nil {
		t.Error("empty rules should fail")
	}
	rules := scs.TableI()
	th := scs.Defaults(rules)
	delete(th, 7)
	if _, err := NewCAWT(rules, th, scs.Params{}); err == nil {
		t.Error("missing threshold should fail")
	}
}

func TestCAWTFiresOnRule1Context(t *testing.T) {
	th := scs.Defaults(scs.TableI())
	th[1] = 2.5
	m := newCAWT(t, th)
	v := m.Step(Observation{
		CGM: 180, BGPrime: 1.5, IOB: 1.0, IOBPrime: -0.01,
		Action: trace.ActionDecrease,
	})
	if !v.Alarm || v.Hazard != trace.HazardH2 {
		t.Errorf("verdict %+v, want H2 alarm", v)
	}
	fired := m.FiredRules()
	if len(fired) == 0 || fired[0] != 1 {
		t.Errorf("fired rules %v, want [1]", fired)
	}
}

func TestCAWTSilentInSafeContext(t *testing.T) {
	m := newCAWT(t, scs.Defaults(scs.TableI()))
	v := m.Step(Observation{
		CGM: 110, BGPrime: 0.1, IOB: 1.0, IOBPrime: 0,
		Action: trace.ActionKeep,
	})
	if v.Alarm {
		t.Errorf("false alarm in euglycemic steady state: %+v (rules %v)", v, m.FiredRules())
	}
}

func TestCAWTH1WinsTies(t *testing.T) {
	// Construct thresholds so both an H1 and H2 rule could fire is not
	// physically possible (contexts are disjoint on BG side), so check
	// rule-10 H1 verdicts directly.
	th := scs.Defaults(scs.TableI())
	m := newCAWT(t, th)
	v := m.Step(Observation{
		CGM: 60, BGPrime: -1, IOB: 3, IOBPrime: 0.01,
		Action: trace.ActionKeep, // below β21=70 without stopping
	})
	if !v.Alarm || v.Hazard != trace.HazardH1 {
		t.Errorf("verdict %+v, want H1", v)
	}
}

func TestCAWOTUsesDefaults(t *testing.T) {
	m, err := NewCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "CAWOT" {
		t.Errorf("name %q", m.Name())
	}
	if m.Thresholds()[10] != 70 {
		t.Errorf("CAWOT β21 = %v, want default 70", m.Thresholds()[10])
	}
}

func TestGuidelineRules(t *testing.T) {
	g, err := NewGuideline(GuidelineConfig{Lambda10: 80, Lambda90: 170})
	if err != nil {
		t.Fatal(err)
	}
	// φ1 low.
	if v := g.Step(Observation{TimeMin: 0, CGM: 60}); !v.Alarm || v.Hazard != trace.HazardH1 {
		t.Errorf("low BG verdict %+v", v)
	}
	g.Reset()
	// φ1 high.
	if v := g.Step(Observation{TimeMin: 0, CGM: 200}); !v.Alarm || v.Hazard != trace.HazardH2 {
		t.Errorf("high BG verdict %+v", v)
	}
	g.Reset()
	// φ2 fast fall.
	g.Step(Observation{TimeMin: 0, CGM: 150})
	if v := g.Step(Observation{TimeMin: 5, CGM: 140}); !v.Alarm || v.Hazard != trace.HazardH1 {
		t.Errorf("fast-fall verdict %+v", v)
	}
	g.Reset()
	// φ2 fast rise.
	g.Step(Observation{TimeMin: 0, CGM: 150})
	if v := g.Step(Observation{TimeMin: 5, CGM: 156}); !v.Alarm || v.Hazard != trace.HazardH2 {
		t.Errorf("fast-rise verdict %+v", v)
	}
	g.Reset()
	// In-range, gentle drift: silent.
	g.Step(Observation{TimeMin: 0, CGM: 120})
	if v := g.Step(Observation{TimeMin: 5, CGM: 121}); v.Alarm {
		t.Errorf("false alarm %+v", v)
	}
}

func TestGuidelineRecoveryDeadline(t *testing.T) {
	g, err := NewGuideline(GuidelineConfig{Lambda10: 90, Lambda90: 170, AlphaMin: 25})
	if err != nil {
		t.Fatal(err)
	}
	// BG below λ10=90 (but above φ1's 70, falling slower than 5/cycle):
	// must alarm only after 25 minutes without recovery.
	times := []float64{0, 5, 10, 15, 20, 25, 30}
	var alarmAt float64 = -1
	for _, tm := range times {
		v := g.Step(Observation{TimeMin: tm, CGM: 85 - tm/10})
		if v.Alarm {
			alarmAt = tm
			break
		}
	}
	if alarmAt != 25 {
		t.Errorf("φ3 alarm at %v min, want 25", alarmAt)
	}
	// Recovery above λ10 resets the timer.
	g.Reset()
	g.Step(Observation{TimeMin: 0, CGM: 85})
	g.Step(Observation{TimeMin: 5, CGM: 92}) // recovered
	if v := g.Step(Observation{TimeMin: 30, CGM: 88}); v.Alarm {
		t.Error("timer should reset after recovery")
	}
}

func TestGuidelineValidation(t *testing.T) {
	if _, err := NewGuideline(GuidelineConfig{BGLow: 200, BGHigh: 100}); err == nil {
		t.Error("inverted BG range should fail")
	}
	if _, err := NewGuideline(GuidelineConfig{Lambda10: 180, Lambda90: 100}); err == nil {
		t.Error("inverted percentiles should fail")
	}
}

func TestPercentilesFromTraces(t *testing.T) {
	tr := &trace.Trace{CycleMin: 5}
	for i := 0; i < 100; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{Step: i, CGM: 100 + float64(i)})
	}
	l10, l90, err := PercentilesFromTraces([]*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if l10 < 105 || l10 > 115 || l90 < 185 || l90 > 195 {
		t.Errorf("percentiles %v/%v", l10, l90)
	}
	if _, _, err := PercentilesFromTraces(nil); err == nil {
		t.Error("empty input should fail")
	}
}

func TestMPCPredictsHypoFromOverdose(t *testing.T) {
	m, err := NewMPC(MPCConfig{Basal: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	// Sustained massive rate: as the monitor's insulin model charges up,
	// the projection must cross below 70 within a couple of hours.
	var v Verdict
	for i := 0; i < 24 && !v.Alarm; i++ {
		v = m.Step(Observation{TimeMin: float64(i) * 5, CGM: 100, Rate: 20, CycleMin: 5})
	}
	if !v.Alarm || v.Hazard != trace.HazardH1 {
		t.Errorf("verdict %+v, want H1 (overdose projected)", v)
	}
}

func TestMPCPredictsHyperFromSuspension(t *testing.T) {
	m, err := NewMPC(MPCConfig{Basal: 1.3, HorizonMin: 120})
	if err != nil {
		t.Fatal(err)
	}
	// Zero insulin with BG already high: projects above 180. Feed a few
	// suspended cycles so the monitor's insulin state decays.
	var v Verdict
	for i := 0; i < 12; i++ {
		v = m.Step(Observation{TimeMin: float64(i) * 5, CGM: 180, Rate: 0, CycleMin: 5})
		if v.Alarm {
			break
		}
	}
	if !v.Alarm || v.Hazard != trace.HazardH2 {
		t.Errorf("verdict %+v, want H2 (suspension projected)", v)
	}
}

func TestMPCSilentAtSteadyState(t *testing.T) {
	m, err := NewMPC(MPCConfig{Basal: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	v := m.Step(Observation{CGM: 120, Rate: 1.3, CycleMin: 5})
	if v.Alarm {
		t.Errorf("false alarm at steady state: %+v", v)
	}
}

func TestMPCValidation(t *testing.T) {
	if _, err := NewMPC(MPCConfig{}); err == nil {
		t.Error("missing basal should fail")
	}
}

func TestMLMonitorBinaryAndMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Binary: class 1 when CGM > 200.
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		cgm := 80 + rng.Float64()*220
		obs := Observation{CGM: cgm, Rate: 1, Action: trace.ActionKeep}
		X = append(X, features(obs))
		if cgm > 200 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	tree, err := ml.FitTree(X, y, ml.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLMonitor("DT", tree)
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Step(Observation{CGM: 250, Rate: 1, Action: trace.ActionKeep}); !v.Alarm {
		t.Error("DT monitor should alarm at CGM 250")
	}
	if v := m.Step(Observation{CGM: 120, Rate: 1, Action: trace.ActionKeep}); v.Alarm {
		t.Error("DT monitor should stay silent at CGM 120")
	}
	if _, err := NewMLMonitor("nil", nil); err == nil {
		t.Error("nil classifier should fail")
	}
}

func TestSequenceMonitorWindowing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Trend data over the monitor's feature vector.
	var X [][][]float64
	var y []int
	for i := 0; i < 200; i++ {
		up := rng.Intn(2) == 1
		win := make([][]float64, 6)
		base := 100 + rng.Float64()*50
		for k := range win {
			v := base - float64(k)*5
			if up {
				v = base + float64(k)*5
			}
			win[k] = features(Observation{CGM: v, Rate: 1, Action: trace.ActionKeep})
		}
		X = append(X, win)
		if up {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	lstm, err := ml.FitLSTM(X, y, ml.LSTMConfig{Units: []int{8}, Epochs: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSequenceMonitor("LSTM", lstm.NewBatch(), 6)
	if err != nil {
		t.Fatal(err)
	}
	// First 5 observations: silent (window not full), regardless of content.
	for i := 0; i < 5; i++ {
		if v := m.Step(Observation{CGM: 300 + float64(i)*10, Rate: 1, Action: trace.ActionKeep}); v.Alarm {
			t.Fatalf("alarm before window filled (step %d)", i)
		}
	}
	// Window full now: rising sequence should classify as 1 -> alarm.
	v := m.Step(Observation{CGM: 360, Rate: 1, Action: trace.ActionKeep})
	if !v.Alarm {
		t.Error("rising window should alarm")
	}
	// Reset empties the window: the monitor is silent until it refills.
	m.Reset()
	for i := 0; i < 5; i++ {
		if v := m.Step(Observation{CGM: 300 + float64(i)*10, Rate: 1, Action: trace.ActionKeep}); v.Alarm {
			t.Fatalf("alarm before the reset window refilled (step %d)", i)
		}
	}
	if v := m.Step(Observation{CGM: 360, Rate: 1, Action: trace.ActionKeep}); !v.Alarm {
		t.Error("refilled rising window should alarm")
	}
	if _, err := NewSequenceMonitor("x", lstm.NewBatch(), 0); err == nil {
		t.Error("bad window should fail")
	}
	if _, err := NewSequenceMonitor("x", lstm.NewBatch(), 4); err == nil {
		t.Error("a window other than the LSTM's trained 6 should fail")
	}
}

func TestTrainingDataLabels(t *testing.T) {
	tr := &trace.Trace{CycleMin: 5}
	for i := 0; i < 10; i++ {
		s := trace.Sample{Step: i, CGM: 150, Action: trace.ActionKeep}
		if i >= 7 {
			s.Hazard = trace.HazardH2
		}
		tr.Samples = append(tr.Samples, s)
	}
	X, y, err := DrawRows([]*trace.Trace{tr}, false, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != 10 || len(y) != 10 {
		t.Fatalf("sizes %d/%d", len(X), len(y))
	}
	// Every sample before a future hazard is positive per Eq. 7.
	for i := 0; i < 8; i++ {
		if y[i] != 1 {
			t.Errorf("sample %d label %d, want 1 (hazard at t'>=t)", i, y[i])
		}
	}
	// A hazard sample is positive itself (t' = t).
	if y[8] != 1 || y[9] != 1 {
		t.Errorf("hazard samples labeled %d, %d, want 1", y[8], y[9])
	}
	// Multi-class labels carry the hazard type.
	_, ym, err := DrawRows([]*trace.Trace{tr}, true, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ym[0] != int(trace.HazardH2) {
		t.Errorf("multi-class label %d, want %d", ym[0], int(trace.HazardH2))
	}
	for _, bad := range []struct{ window, limit int }{{0, 10}, {1, -1}} {
		if _, _, err := DrawWindows([]*trace.Trace{tr}, bad.window, false, bad.limit, nil); err == nil {
			t.Errorf("window %d, limit %d: want an error", bad.window, bad.limit)
		}
	}
}

func TestSequenceTrainingDataShape(t *testing.T) {
	tr := &trace.Trace{CycleMin: 5}
	for i := 0; i < 20; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{Step: i, CGM: 120})
	}
	X, y, err := DrawWindows([]*trace.Trace{tr}, 6, false, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != 15 { // 20 - 6 + 1
		t.Fatalf("%d windows, want 15", len(X))
	}
	if len(X[0]) != 6 || len(X[0][0]) != FeatureDim {
		t.Errorf("window shape %dx%d", len(X[0]), len(X[0][0]))
	}
	for _, label := range y {
		if label != 0 {
			t.Error("hazard-free trace should have zero labels")
		}
	}
}

func TestReplayAndAnnotate(t *testing.T) {
	tr := &trace.Trace{CycleMin: 5}
	for i := 0; i < 5; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{
			Step: i, CGM: 250, Rate: 1, Action: trace.ActionKeep,
		})
	}
	g, err := NewGuideline(GuidelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := Replay(g, tr)
	if len(verdicts) != 5 {
		t.Fatalf("%d verdicts", len(verdicts))
	}
	for i, v := range verdicts {
		if !v.Alarm {
			t.Errorf("step %d: no alarm at CGM 250", i)
		}
	}
	Annotate(g, tr)
	if !tr.Samples[0].Alarm || tr.Samples[0].AlarmHazard != trace.HazardH2 {
		t.Error("Annotate should write alarms into samples")
	}
}
