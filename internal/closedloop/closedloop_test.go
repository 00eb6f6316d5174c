package closedloop

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/sim/glucosym"
	"repro/internal/sim/uvapadova"
	"repro/internal/trace"
)

func newGlucosymRig(t *testing.T, idx int) (Patient, control.Controller) {
	t.Helper()
	p, err := glucosym.New(idx)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := control.NewOpenAPS(control.OpenAPSConfig{Basal: p.Basal(), ISF: 40})
	if err != nil {
		t.Fatal(err)
	}
	return p, ctrl
}

func newUVARig(t *testing.T, idx int) (Patient, control.Controller) {
	t.Helper()
	p, err := uvapadova.New(idx)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := control.NewBasalBolus(control.BasalBolusConfig{Basal: p.Basal(), ISF: 40})
	if err != nil {
		t.Fatal(err)
	}
	return p, ctrl
}

func TestConfigValidation(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 0)
	if _, err := Run(Config{Controller: ctrl}); err == nil {
		t.Error("nil patient should fail")
	}
	if _, err := Run(Config{Patient: p}); err == nil {
		t.Error("nil controller should fail")
	}
	if _, err := Run(Config{Patient: p, Controller: ctrl, Steps: -3}); err == nil {
		t.Error("negative steps should fail")
	}
	if _, err := Run(Config{Patient: p, Controller: ctrl, CycleMin: -1}); err == nil {
		t.Error("negative cycle should fail")
	}
}

func TestFaultFreeRunStaysEuglycemic(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 0)
	tr, err := Run(Config{
		Platform: "glucosym/openaps", Patient: p, Controller: ctrl,
		InitialBG: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 150 {
		t.Fatalf("trace length %d, want 150", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if tr.Faulty() {
		t.Error("fault-free run marked faulty")
	}
	for _, s := range tr.Samples {
		if s.BG < 60 || s.BG > 250 {
			t.Fatalf("step %d: BG %v escaped euglycemic control", s.Step, s.BG)
		}
	}
}

func TestFaultFreeRunsFromAllInitialBGs(t *testing.T) {
	for _, bg := range fault.DefaultInitialBGs {
		p, ctrl := newGlucosymRig(t, 1)
		tr, err := Run(Config{Patient: p, Controller: ctrl, InitialBG: bg})
		if err != nil {
			t.Fatalf("bg %v: %v", bg, err)
		}
		last := tr.Samples[tr.Len()-1].BG
		if last < 60 || last > 220 {
			t.Errorf("initial %v: final BG %v not brought toward range", bg, last)
		}
	}
}

func TestMaxGlucoseFaultDrivesHypo(t *testing.T) {
	// Spoofing maximum glucose makes OpenAPS over-deliver, driving the
	// patient toward hypoglycemia (H1) — the paper's most damaging fault
	// class (Fig. 8 discussion).
	p, ctrl := newGlucosymRig(t, 0)
	f := &fault.Fault{Kind: fault.KindMax, Target: "glucose", Value: 400, StartStep: 10, Duration: 42}
	tr, err := Run(Config{Patient: p, Controller: ctrl, InitialBG: 120, Fault: f})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Faulty() {
		t.Fatal("trace should be faulty")
	}
	minBG := 1000.0
	for _, s := range tr.Samples {
		minBG = math.Min(minBG, s.BG)
	}
	if minBG > 80 {
		t.Errorf("min BG %v under max-glucose fault, want hypoglycemia", minBG)
	}
	if !tr.Hazardous() {
		t.Error("max-glucose fault should label a hazard")
	}
	if tr.DominantHazard() != trace.HazardH1 {
		t.Errorf("dominant hazard %v, want H1", tr.DominantHazard())
	}
}

func TestMinGlucoseFaultDrivesHyper(t *testing.T) {
	// Spoofing minimum glucose suspends insulin; BG drifts up (H2).
	p, ctrl := newGlucosymRig(t, 2) // high-EGP patient rises faster
	f := &fault.Fault{Kind: fault.KindMin, Target: "glucose", Value: 40, StartStep: 10, Duration: 60}
	tr, err := Run(Config{Patient: p, Controller: ctrl, InitialBG: 160, Fault: f})
	if err != nil {
		t.Fatal(err)
	}
	maxBG := 0.0
	for _, s := range tr.Samples {
		maxBG = math.Max(maxBG, s.BG)
	}
	if maxBG < 200 {
		t.Errorf("max BG %v under min-glucose fault, want hyperglycemia", maxBG)
	}
}

func TestFaultActiveFlagsMatchWindow(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 0)
	f := &fault.Fault{Kind: fault.KindHold, Target: "glucose", StartStep: 20, Duration: 10}
	tr, err := Run(Config{Patient: p, Controller: ctrl, Fault: f})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples {
		want := s.Step >= 20 && s.Step < 30
		if s.FaultActive != want {
			t.Fatalf("step %d: FaultActive=%v, want %v", s.Step, s.FaultActive, want)
		}
	}
}

func TestUVAPlatformRuns(t *testing.T) {
	p, ctrl := newUVARig(t, 0)
	tr, err := Run(Config{
		Platform: "uvapadova/basalbolus", Patient: p, Controller: ctrl,
		InitialBG: 140,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	last := tr.Samples[tr.Len()-1].BG
	if last < 60 || last > 250 {
		t.Errorf("final BG %v out of plausible control band", last)
	}
}

// recordingMonitor alarms whenever CGM exceeds a threshold.
type recordingMonitor struct {
	threshold float64
	calls     int
}

func (m *recordingMonitor) Name() string { return "recording" }
func (m *recordingMonitor) Reset()       { m.calls = 0 }
func (m *recordingMonitor) Step(obs Observation) Verdict {
	m.calls++
	if obs.CGM > m.threshold {
		return Verdict{Alarm: true, Hazard: trace.HazardH2}
	}
	return Verdict{}
}

func TestMonitorReceivesEveryCycle(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 0)
	mon := &recordingMonitor{threshold: 1e9}
	_, err := Run(Config{Patient: p, Controller: ctrl, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if mon.calls != 150 {
		t.Errorf("monitor called %d times, want 150", mon.calls)
	}
}

func TestMitigationOverridesCommand(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 2)
	// Force hyperglycemia via min-glucose fault, with an H2-alarming
	// monitor and mitigation on: delivered rate must exceed commanded.
	f := &fault.Fault{Kind: fault.KindMin, Target: "glucose", Value: 40, StartStep: 5, Duration: 60}
	mon := &recordingMonitor{threshold: 200}
	tr, err := Run(Config{
		Patient: p, Controller: ctrl, InitialBG: 160, Fault: f,
		Monitor:    mon,
		Mitigation: MitigationConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * p.Basal() // fixed H2 corrective rate
	var sawMitigation bool
	for _, s := range tr.Samples {
		if s.Mitigated {
			sawMitigation = true
			if math.Abs(s.Delivered-want) > 1e-9 {
				t.Fatalf("step %d: H2 mitigation delivered %v, want fixed %v", s.Step, s.Delivered, want)
			}
		} else if s.Delivered != s.Rate {
			t.Fatalf("step %d: unmitigated sample has delivered %v != rate %v", s.Step, s.Delivered, s.Rate)
		}
	}
	if !sawMitigation {
		t.Error("expected at least one mitigated cycle")
	}
}

func TestMitigationH1CutsInsulin(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 0)
	f := &fault.Fault{Kind: fault.KindMax, Target: "glucose", Value: 400, StartStep: 5, Duration: 42}
	// Monitor that alarms H1 when CGM is falling under heavy dosing.
	mon := monitorFunc(func(obs Observation) Verdict {
		if obs.Rate > 2*obs.Basal {
			return Verdict{Alarm: true, Hazard: trace.HazardH1}
		}
		return Verdict{}
	})
	tr, err := Run(Config{
		Patient: p, Controller: ctrl, Fault: f,
		Monitor:    mon,
		Mitigation: MitigationConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples {
		if s.Mitigated && s.Delivered != 0 {
			t.Fatalf("step %d: H1 mitigation delivered %v, want 0", s.Step, s.Delivered)
		}
	}
}

type monitorFunc func(Observation) Verdict

func (monitorFunc) Name() string                 { return "func" }
func (monitorFunc) Reset()                       {}
func (f monitorFunc) Step(o Observation) Verdict { return f(o) }

func TestPumpClampsRateFaults(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 0)
	f := &fault.Fault{Kind: fault.KindAdd, Target: "rate", Value: 500, StartStep: 0, Duration: 150}
	tr, err := Run(Config{Patient: p, Controller: ctrl, Fault: f, Pump: Pump{MaxRate: 25}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples {
		if s.Rate > 25 || s.Delivered > 25 {
			t.Fatalf("step %d: rate %v exceeds pump limit", s.Step, s.Rate)
		}
	}
}

func TestActionsClassified(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 0)
	f := &fault.Fault{Kind: fault.KindMax, Target: "glucose", Value: 400, StartStep: 10, Duration: 30}
	tr, err := Run(Config{Patient: p, Controller: ctrl, Fault: f})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[trace.Action]int)
	for _, s := range tr.Samples {
		counts[s.Action]++
	}
	if len(counts) < 2 {
		t.Errorf("only %d distinct actions observed: %v", len(counts), counts)
	}
	if counts[trace.ActionUnknown] > 0 {
		t.Error("unclassified actions in trace")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *trace.Trace {
		p, ctrl := newGlucosymRig(t, 3)
		f := &fault.Fault{Kind: fault.KindSub, Target: "glucose", Value: 75, StartStep: 20, Duration: 36}
		tr, err := Run(Config{Patient: p, Controller: ctrl, InitialBG: 140, Fault: f})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("non-deterministic at step %d:\n%+v\n%+v", i, a.Samples[i], b.Samples[i])
		}
	}
}

// marginMonitor alarms H1 above a CGM threshold with a configurable
// violation depth, exercising the margin-scaled Algorithm 1 path.
type marginMonitor struct {
	threshold float64
	margin    float64
}

func (m *marginMonitor) Name() string { return "margin" }
func (m *marginMonitor) Reset()       {}
func (m *marginMonitor) Step(obs Observation) Verdict {
	if obs.CGM > m.threshold {
		return Verdict{Alarm: true, Hazard: trace.HazardH1, Margin: m.margin, Rule: 6}
	}
	return Verdict{}
}

// TestMitigationScaleByMargin: with ScaleByMargin the delivered rate
// must interpolate between the issued command and the Algorithm 1
// corrective action in proportion to the violation depth, saturating at
// the full correction at MarginRef.
func TestMitigationScaleByMargin(t *testing.T) {
	run := func(margin float64, scale bool) *trace.Trace {
		p, ctrl := newGlucosymRig(t, 0)
		f := &fault.Fault{Kind: fault.KindMax, Target: "glucose", Value: 400, StartStep: 5, Duration: 42}
		tr, err := Run(Config{
			Patient: p, Controller: ctrl, Fault: f,
			// threshold 0: alarm (and mitigate) on every cycle, so the
			// blend is exercised across the whole command range.
			Monitor:    &marginMonitor{threshold: 0, margin: margin},
			Mitigation: MitigationConfig{Enabled: true, ScaleByMargin: scale, MarginRef: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// Half-depth violation (margin -1 of ref 2): delivered must sit
	// exactly halfway between the command and the H1 corrective (0).
	tr := run(-1, true)
	var mitigated int
	for _, s := range tr.Samples {
		if !s.Mitigated {
			continue
		}
		mitigated++
		want := s.Rate + 0.5*(0-s.Rate)
		if math.Abs(s.Delivered-want) > 1e-12 {
			t.Fatalf("step %d: delivered %v, want half-blend %v (rate %v)", s.Step, s.Delivered, want, s.Rate)
		}
	}
	if mitigated == 0 {
		t.Fatal("scenario never mitigated")
	}

	// Depth beyond MarginRef saturates at the full H1 cut.
	tr = run(-5, true)
	for _, s := range tr.Samples {
		if s.Mitigated && s.Delivered != 0 {
			t.Fatalf("step %d: saturated H1 mitigation delivered %v, want 0", s.Step, s.Delivered)
		}
	}

	// A margin-free alarm (Margin == 0) must apply the full correction
	// even with scaling on — non-margin monitors keep Algorithm 1 as-is.
	tr = run(0, true)
	for _, s := range tr.Samples {
		if s.Mitigated && s.Delivered != 0 {
			t.Fatalf("step %d: margin-free alarm delivered %v, want full correction 0", s.Step, s.Delivered)
		}
	}

	// And with scaling off the margin is ignored entirely.
	tr = run(-1, false)
	for _, s := range tr.Samples {
		if s.Mitigated && s.Delivered != 0 {
			t.Fatalf("step %d: ScaleByMargin off but delivered %v != 0", s.Step, s.Delivered)
		}
	}
}

// TestStepperLastVerdict: the stepper must retain the applied verdict,
// margin and rule included, which the session snapshot encodes.
func TestStepperLastVerdict(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 0)
	st, err := NewStepper(Config{
		Patient: p, Controller: ctrl, InitialBG: 120, Steps: 3,
		Monitor: &marginMonitor{threshold: 0, margin: -0.75},
	}, StepperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.tr.Samples) != 0 || st.lastVerdict != (Verdict{}) {
		t.Fatalf("before any step: %d samples, lastVerdict %+v; want none and the zero verdict", len(st.tr.Samples), st.lastVerdict)
	}
	st.Step()
	if v := st.lastVerdict; !v.Alarm || v.Margin != -0.75 || v.Rule != 6 {
		t.Fatalf("lastVerdict = %+v, want the monitor's margin verdict", v)
	}
}

// TestMitigationRejectsNegativeMarginRef: a negative reference would
// invert the blend (more insulin on a too-much-insulin alarm).
func TestMitigationRejectsNegativeMarginRef(t *testing.T) {
	p, ctrl := newGlucosymRig(t, 0)
	_, err := Run(Config{
		Patient: p, Controller: ctrl,
		Monitor:    &marginMonitor{threshold: 0, margin: -0.5},
		Mitigation: MitigationConfig{Enabled: true, ScaleByMargin: true, MarginRef: -1},
	})
	if err == nil {
		t.Error("negative MarginRef should be rejected")
	}
}

// TestDeferredSteppingMatchesStep: driving a stepper through the
// batched-engine protocol — CleanCGM + external sensor transform,
// BeginStepSensed, the monitor, FinishStepDeferred, then advancing
// the patient outside the stepper — must reproduce the plain Step loop
// sample for sample, including under margin-scaled mitigation.
func TestDeferredSteppingMatchesStep(t *testing.T) {
	newCfg := func() (Config, StepperOptions) {
		p, ctrl := newGlucosymRig(t, 1)
		f := &fault.Fault{Kind: fault.KindAdd, Target: "glucose", Value: 60, StartStep: 10, Duration: 30}
		cfg := Config{
			Patient: p, Controller: ctrl, InitialBG: 130, Steps: 60, CycleMin: 5,
			Fault: f,
			// threshold 0: alarm (and mitigate) on every cycle, so the
			// deferred path is compared under active mitigation throughout.
			Monitor:    &marginMonitor{threshold: 0, margin: -1},
			Mitigation: MitigationConfig{Enabled: true, ScaleByMargin: true, MarginRef: 2},
		}
		sensorFn := func(clean, _ float64) float64 { return clean + 1.5 }
		return cfg, StepperOptions{Sensor: sensorFn}
	}

	cfgA, optsA := newCfg()
	stA, err := NewStepper(cfgA, optsA)
	if err != nil {
		t.Fatal(err)
	}
	for !stA.Done() {
		stA.Step()
	}
	want := stA.Finish()

	cfgB, _ := newCfg()
	// The deferred path owns the sensor channel and physiology itself.
	stB, err := NewStepper(cfgB, StepperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for !stB.Done() {
		cgm := stB.CleanCGM() + 1.5
		if now := stB.CycleTime(); now != float64(stB.StepIndex())*5 {
			t.Fatalf("CycleTime %v at step %d", now, stB.StepIndex())
		}
		obs := stB.BeginStepSensed(cgm)
		delivered := stB.FinishStepDeferred(cfgB.Monitor.Step(obs))
		cfgB.Patient.Step(delivered, 0, 5)
	}
	got := stB.Finish()

	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%d samples, want %d", len(got.Samples), len(want.Samples))
	}
	mitigated := false
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("step %d differs:\ndeferred %+v\nstep     %+v", i, got.Samples[i], want.Samples[i])
		}
		if want.Samples[i].Mitigated {
			mitigated = true
		}
	}
	if !mitigated {
		t.Fatal("mitigation never fired — comparison is vacuous")
	}
}
