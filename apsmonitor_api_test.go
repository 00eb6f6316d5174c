package apsmonitor_test

import (
	"context"
	"testing"
	"time"

	apsmonitor "repro"
)

func TestFacadePlatforms(t *testing.T) {
	for _, name := range []string{"glucosym", "t1ds2013"} {
		p, err := apsmonitor.PlatformByName(name)
		if err != nil {
			t.Fatalf("PlatformByName(%q): %v", name, err)
		}
		if p.NumPatients != 10 {
			t.Errorf("%s cohort size %d, want 10", name, p.NumPatients)
		}
	}
	if _, err := apsmonitor.PlatformByName("bogus"); err == nil {
		t.Error("unknown platform should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPlatform should panic on unknown name")
		}
	}()
	apsmonitor.MustPlatform("bogus")
}

func TestFacadeCampaignScaling(t *testing.T) {
	if n := len(apsmonitor.FullCampaign()); n != 882 {
		t.Errorf("full campaign %d scenarios, want 882", n)
	}
	if n := len(apsmonitor.QuickScenarios(100)); n != 9 {
		t.Errorf("quick campaign %d scenarios, want 9", n)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	attack := apsmonitor.Fault{
		Kind: apsmonitor.FaultMax, Target: "glucose", Value: 400,
		StartStep: 10, Duration: 60,
	}
	traces, err := apsmonitor.RunCampaign(apsmonitor.CampaignConfig{
		Platform:  apsmonitor.MustPlatform("glucosym"),
		Patients:  []int{0},
		Scenarios: []apsmonitor.Scenario{{Fault: attack, InitialBG: 140}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("%d traces", len(traces))
	}
	tr := traces[0]
	if !tr.Hazardous() {
		t.Fatal("max-glucose attack should cause a hazard on this patient")
	}
	if tr.DominantHazard() != apsmonitor.HazardH1 {
		t.Errorf("hazard %v, want H1", tr.DominantHazard())
	}

	mon, err := apsmonitor.NewCAWOTMonitor(apsmonitor.TableI())
	if err != nil {
		t.Fatal(err)
	}
	apsmonitor.AnnotateMonitor(mon, tr)
	d, h := tr.FirstAlarmStep(), tr.FirstHazardStep()
	if d < 0 {
		t.Fatal("monitor never alarmed on a detected attack scenario")
	}
	if d >= h {
		t.Errorf("alarm at %d not before hazard at %d", d, h)
	}

	c := apsmonitor.SampleLevelMetrics(tr, 0)
	if c.TP == 0 {
		t.Error("no true positives on an early-detected attack")
	}
	sim := apsmonitor.SimulationLevelMetrics(tr)
	if sim.TP == 0 {
		t.Error("simulation-level TP missing")
	}
	if rt := apsmonitor.ReactionTime(traces); rt.Count == 0 || rt.MeanMin <= 0 {
		t.Errorf("reaction stats %+v, want early detection", rt)
	}
}

func TestFacadeLearning(t *testing.T) {
	traces, err := apsmonitor.RunCampaign(apsmonitor.CampaignConfig{
		Platform:  apsmonitor.MustPlatform("glucosym"),
		Patients:  []int{0},
		Scenarios: apsmonitor.QuickScenarios(30),
	})
	if err != nil {
		t.Fatal(err)
	}
	rules := apsmonitor.TableI()
	th, report, err := apsmonitor.LearnThresholds(rules, traces, apsmonitor.LearnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(th) != 12 {
		t.Fatalf("%d thresholds", len(th))
	}
	if report.TotalExamples == 0 {
		t.Error("no examples harvested from campaign")
	}
	if _, err := apsmonitor.NewCAWTMonitor(rules, th); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSTL(t *testing.T) {
	f, err := apsmonitor.ParseSTL("G[0,60] (BG > 70 and BG < 180)")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := apsmonitor.NewSTLTrace(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Set("BG", []float64{120, 130, 140, 150, 160}); err != nil {
		t.Fatal(err)
	}
	sat, err := f.Sat(tr, 0)
	if err != nil || !sat {
		t.Errorf("in-range trace should satisfy: %v %v", sat, err)
	}
}

// TestFacadeContinuousShardedSinks drives the continuous-serving shape
// through the public API: a serving fleet with sink delivery paced by
// SinkEpoch must run, persist telemetry while live, and shut down
// cleanly on deadline.
func TestFacadeContinuousShardedSinks(t *testing.T) {
	hist, err := apsmonitor.NewFleetHistSink(-5, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := apsmonitor.NewFleetRingSink(64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := apsmonitor.RunFleet(ctx, apsmonitor.FleetConfig{
		Platform:   apsmonitor.FleetPlatform(apsmonitor.MustPlatform("glucosym")),
		Patients:   []int{0},
		Scenarios:  apsmonitor.Programs(apsmonitor.QuickScenarios(300)),
		Steps:      5,
		Continuous: true,
		Telemetry:  &apsmonitor.FleetTelemetryConfig{},
		Sinks:      []apsmonitor.FleetSink{hist, ring},
		SinkEpoch:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed <= int64(res.Sessions) {
		t.Fatalf("no replica restarts (completed %d of %d slots)", res.Completed, res.Sessions)
	}
	if ring.Total() == 0 {
		t.Fatal("continuous delivery reached no sink")
	}
	if len(hist.Patients()) == 0 {
		t.Fatal("no margins aggregated from the serving fleet")
	}
}

func TestFacadeRiskAndLabeling(t *testing.T) {
	if apsmonitor.RiskIndex(112.5) > 0.01 {
		t.Error("risk at 112.5 should be ~0")
	}
	if apsmonitor.RiskIndex(40) < 20 {
		t.Error("severe hypo should carry high risk")
	}
	tr := &apsmonitor.Trace{CycleMin: 5}
	for i := 0; i < 20; i++ {
		tr.Samples = append(tr.Samples, apsmonitor.Sample{Step: i, BG: 45})
	}
	apsmonitor.LabelHazards(tr)
	if !tr.Hazardous() {
		t.Error("sustained severe hypo should label hazardous")
	}
}
