package stllearn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/scs"
	"repro/internal/stl"
	"repro/internal/trace"
)

func TestLossShapes(t *testing.T) {
	tmee := TMEE{}
	telex := TeLEx{}
	// Both have exponential walls for violations.
	if tmee.Value(-3) < 10 || telex.Value(-3) < 10 {
		t.Error("losses should explode for negative margins")
	}
	// TMEE's minimum sits at a small positive margin (~0.45).
	best, bestR := math.Inf(1), 0.0
	for r := -1.0; r <= 5; r += 0.01 {
		if v := tmee.Value(r); v < best {
			best, bestR = v, r
		}
	}
	if bestR < 0.1 || bestR > 1.0 {
		t.Errorf("TMEE minimum at r=%v, want small positive", bestR)
	}
	// TeLEx's minimum is farther out: looser thresholds (Fig. 3b).
	bestT, bestTR := math.Inf(1), 0.0
	for r := -1.0; r <= 10; r += 0.01 {
		if v := telex.Value(r); v < bestT {
			bestT, bestTR = v, r
		}
	}
	if bestTR <= bestR {
		t.Errorf("TeLEx minimum r=%v should exceed TMEE's %v (less tight)", bestTR, bestR)
	}
	// MSE/MAE are symmetric: equal penalty for violation and slack.
	if (MSE{}).Value(-2) != (MSE{}).Value(2) || (MAE{}).Value(-2) != (MAE{}).Value(2) {
		t.Error("MSE/MAE should be symmetric")
	}
}

func TestLossByName(t *testing.T) {
	for _, name := range []string{"TMEE", "TeLEx", "MSE", "MAE", "tmee", "mse"} {
		if _, err := LossByName(name); err != nil {
			t.Errorf("LossByName(%q): %v", name, err)
		}
	}
	if _, err := LossByName("huber"); err == nil {
		t.Error("unknown loss should fail")
	}
}

func TestCurve(t *testing.T) {
	rs, vs := Curve(TMEE{}, -2, 4, 61)
	if len(rs) != 61 || len(vs) != 61 {
		t.Fatalf("lengths %d/%d", len(rs), len(vs))
	}
	if rs[0] != -2 || rs[60] != 4 {
		t.Errorf("range [%v,%v]", rs[0], rs[60])
	}
	// Degenerate n.
	rs, _ = Curve(MAE{}, 0, 1, 1)
	if len(rs) != 2 {
		t.Errorf("n<2 should clamp to 2, got %d", len(rs))
	}
}

// hazardTrace builds a synthetic H2-hazard trace where rule 9's context
// (BG > BGT, u3 issued) holds with a chosen IOB value before the hazard.
func hazardTrace(patient string, iob float64) *trace.Trace {
	tr := &trace.Trace{PatientID: patient, CycleMin: 5}
	for i := 0; i < 40; i++ {
		s := trace.Sample{
			Step: i, TimeMin: float64(i) * 5,
			BG: 200, CGM: 200, IOB: iob,
			Action: trace.ActionStop,
		}
		if i >= 20 {
			s.Hazard = trace.HazardH2
			s.BG, s.CGM = 300, 300
		}
		tr.Samples = append(tr.Samples, s)
	}
	return tr
}

func rule9(t *testing.T) scs.Rule {
	t.Helper()
	for _, r := range scs.TableI() {
		if r.ID == 9 {
			return r
		}
	}
	t.Fatal("rule 9 missing")
	return scs.Rule{}
}

func TestExtractExamples(t *testing.T) {
	r := rule9(t)
	traces := []*trace.Trace{
		hazardTrace("p1", 0.8),
		hazardTrace("p1", 1.2),
	}
	cfg := Config{}
	examples := ExtractExamples(r, traces, cfg)
	if len(examples) == 0 {
		t.Fatal("no examples harvested")
	}
	for _, mu := range examples {
		if mu != 0.8 && mu != 1.2 {
			t.Errorf("unexpected example %v", mu)
		}
	}
	// A hazard-free trace contributes nothing.
	clean := &trace.Trace{PatientID: "p2", CycleMin: 5}
	for i := 0; i < 40; i++ {
		clean.Samples = append(clean.Samples, trace.Sample{Step: i, BG: 120, CGM: 120, Action: trace.ActionKeep})
	}
	if got := ExtractExamples(r, []*trace.Trace{clean}, cfg); len(got) != 0 {
		t.Errorf("clean trace yielded %d examples", len(got))
	}
	// A trace with the wrong hazard type contributes nothing to rule 9.
	h1 := hazardTrace("p3", 0.5)
	for i := range h1.Samples {
		if h1.Samples[i].Hazard == trace.HazardH2 {
			h1.Samples[i].Hazard = trace.HazardH1
		}
	}
	if got := ExtractExamples(r, []*trace.Trace{h1}, cfg); len(got) != 0 {
		t.Errorf("H1 trace yielded %d rule-9 examples", len(got))
	}
}

func TestLearnRuleTightensAboveExamples(t *testing.T) {
	r := rule9(t) // IOB < β rule
	examples := []float64{0.5, 0.8, 1.1, 1.3, 0.9}
	rep, err := LearnRule(r, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedDefault {
		t.Error("should not fall back to default with examples present")
	}
	// β must sit near the largest example (the TMEE wall is soft, so a
	// marginal shortfall on the single most extreme sample is allowed).
	if rep.Beta < 1.0 {
		t.Errorf("β = %v far below the largest example 1.3", rep.Beta)
	}
	if rep.Beta > 3.0 {
		t.Errorf("β = %v is not tight (max example 1.3)", rep.Beta)
	}
}

func TestLearnRuleGreaterThanDirection(t *testing.T) {
	var r6 scs.Rule
	for _, r := range scs.TableI() {
		if r.ID == 6 {
			r6 = r
		}
	}
	// IOB > β rule: β should sit just below the smallest example.
	examples := []float64{2.0, 2.5, 3.0, 3.5}
	rep, err := LearnRule(r6, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Beta > 2.3 {
		t.Errorf("β = %v well above the smallest example 2.0", rep.Beta)
	}
	if rep.Beta < 0.5 {
		t.Errorf("β = %v is not tight (min example 2.0)", rep.Beta)
	}
}

func TestLearnRuleNoExamples(t *testing.T) {
	r := rule9(t)
	rep, err := LearnRule(r, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedDefault || rep.Beta != r.Default {
		t.Errorf("empty example set should keep default, got %+v", rep)
	}
}

func TestLearnRuleRejectsNonFinite(t *testing.T) {
	r := rule9(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rep, err := LearnRule(r, []float64{0.5, 0.8, bad, 1.1}, Config{})
		if err == nil {
			t.Errorf("example %v: β = %v, want an error", bad, rep.Beta)
			continue
		}
		if want := fmt.Sprintf("rule 9: non-finite example %v at index 2", bad); !strings.Contains(err.Error(), want) {
			t.Errorf("example %v: error %q does not say %q", bad, err, want)
		}
	}
}

func TestLearnRuleRespectsBounds(t *testing.T) {
	r := rule9(t)
	// Absurd examples beyond Hi: β must clamp at Hi.
	examples := []float64{100, 200}
	rep, err := LearnRule(r, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Beta > r.Hi || rep.Beta < r.Lo {
		t.Errorf("β = %v escaped [%v,%v]", rep.Beta, r.Lo, r.Hi)
	}
}

func TestLearnAllRules(t *testing.T) {
	traces := []*trace.Trace{hazardTrace("p1", 0.8), hazardTrace("p1", 1.0)}
	th, report, err := Learn(scs.TableI(), traces, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(th) != 12 {
		t.Fatalf("got %d thresholds", len(th))
	}
	if report.TotalExamples == 0 {
		t.Error("no examples found")
	}
	// Rule 9 learned from data; rules with no matching context hold
	// their defaults.
	if th[9] < 1.0 {
		t.Errorf("rule 9 β = %v, want above max example 1.0", th[9])
	}
	var sawDefault bool
	for _, rr := range report.Rules {
		if rr.UsedDefault {
			sawDefault = true
		}
	}
	if !sawDefault {
		t.Error("expected some rules to keep their defaults on this narrow dataset")
	}
}

func TestLearnWithMSELandsInMiddle(t *testing.T) {
	// The Fig. 3a criticism: symmetric losses put β mid-distribution,
	// violating the formula for roughly half the examples.
	r := rule9(t)
	examples := []float64{1.0, 2.0, 3.0, 4.0}
	repMSE, err := LearnRule(r, examples, Config{Loss: MSE{}})
	if err != nil {
		t.Fatal(err)
	}
	if repMSE.Beta > 3.0 {
		t.Errorf("MSE β = %v, expected mid-distribution (~2.5)", repMSE.Beta)
	}
	repTMEE, err := LearnRule(r, examples, Config{Loss: TMEE{}})
	if err != nil {
		t.Fatal(err)
	}
	if repTMEE.Beta <= repMSE.Beta {
		t.Errorf("TMEE β %v should exceed MSE β %v", repTMEE.Beta, repMSE.Beta)
	}
}

func TestLearnPerPatient(t *testing.T) {
	traces := []*trace.Trace{
		hazardTrace("pA", 0.5),
		hazardTrace("pA", 0.7),
		hazardTrace("pB", 3.0),
		hazardTrace("pB", 3.5),
	}
	per, err := LearnPerPatient(scs.TableI(), traces, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Fatalf("got %d patients", len(per))
	}
	// Patient-specific thresholds must reflect their own data.
	if per["pA"][9] >= per["pB"][9] {
		t.Errorf("patient A β9 %v should be below patient B %v", per["pA"][9], per["pB"][9])
	}
}

// TestLearnPerPatientNamesFirstFailingPatient gives five of eight
// patients a non-finite example and checks that every call, at one and
// at GOMAXPROCS workers, names the first of them in trace order.
func TestLearnPerPatientNamesFirstFailingPatient(t *testing.T) {
	var traces []*trace.Trace
	for round := 0; round < 2; round++ {
		for _, id := range []string{"p7", "p1", "p5", "p0", "p6", "p2", "p4", "p3"} {
			iob := 0.8
			if id != "p7" && id != "p1" && id != "p0" {
				iob = math.NaN()
			}
			traces = append(traces, hazardTrace(id, iob))
		}
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for range 20 {
			_, err := learnPerPatient(scs.TableI(), traces, Config{}, workers)
			if err == nil || !strings.HasPrefix(err.Error(), "stllearn: patient p5: ") {
				t.Fatalf("%d workers: error %v, want one naming patient p5", workers, err)
			}
		}
	}
}

func TestFolds(t *testing.T) {
	var traces []*trace.Trace
	for i := 0; i < 10; i++ {
		traces = append(traces, &trace.Trace{PatientID: "p", CycleMin: 5})
	}
	folds := Folds(traces, 4)
	if len(folds) != 4 {
		t.Fatalf("got %d folds", len(folds))
	}
	total := 0
	for _, f := range folds {
		total += len(f)
	}
	if total != 10 {
		t.Errorf("folds cover %d traces, want 10", total)
	}
	train := TrainingSet(folds, 0)
	if len(train)+len(folds[0]) != 10 {
		t.Error("training set + test fold should cover everything")
	}
	// k < 2 clamps to 2.
	if len(Folds(traces, 1)) != 2 {
		t.Error("k<2 should clamp")
	}
}

func TestLearnedRuleSTLIsTight(t *testing.T) {
	// End-to-end: learned β makes the rule's STL fire on hazardous
	// states and stay silent on a comfortable state.
	r := rule9(t)
	examples := []float64{0.5, 0.8, 1.1}
	rep, err := LearnRule(r, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := scs.Params{}.WithDefaults()
	hazardous := scs.State{BG: 200, IOB: 0.8, Action: trace.ActionStop}
	if !r.Violated(hazardous, p, rep.Beta) {
		t.Error("learned rule should fire on a hazardous example state")
	}
	safe := scs.State{BG: 200, IOB: rep.Beta + 2, Action: trace.ActionStop}
	if r.Violated(safe, p, rep.Beta) {
		t.Error("learned rule should not fire well above β")
	}
	_ = stl.OpLT // keep the stl import for the op reference in docs
}
