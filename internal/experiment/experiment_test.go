package experiment

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// quickCampaign runs a thinned campaign on two patients for test speed.
func quickCampaign(t testing.TB, plat Platform) []*trace.Trace {
	t.Helper()
	traces, err := Run(CampaignConfig{
		Platform:  plat,
		Patients:  []int{0, 4},
		Scenarios: ScenarioSubset(12),
	})
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

func TestPlatformByName(t *testing.T) {
	for _, name := range []string{"glucosym", "t1ds2013"} {
		p, err := PlatformByName(name)
		if err != nil || p.Name != name {
			t.Errorf("PlatformByName(%q): %v, %v", name, p.Name, err)
		}
	}
	if _, err := PlatformByName("nope"); err == nil {
		t.Error("unknown platform should fail")
	}
}

func TestPlatformConstruction(t *testing.T) {
	for _, plat := range Platforms() {
		p, err := plat.NewPatient(0)
		if err != nil {
			t.Fatalf("%s patient: %v", plat.Name, err)
		}
		ctrl, err := plat.NewController(p.Basal())
		if err != nil {
			t.Fatalf("%s controller: %v", plat.Name, err)
		}
		if ctrl.Name() == "" {
			t.Error("controller has no name")
		}
	}
}

func TestISFClamping(t *testing.T) {
	if isf := isfFor(0.1); isf != 120 {
		t.Errorf("tiny basal ISF %v, want clamp 120", isf)
	}
	if isf := isfFor(10); isf != 15 {
		t.Errorf("huge basal ISF %v, want clamp 15", isf)
	}
	if isf := isfFor(1.3); isf < 20 || isf > 40 {
		t.Errorf("typical basal ISF %v, want ~29", isf)
	}
}

func TestScenarioSubset(t *testing.T) {
	all := ScenarioSubset(1)
	if len(all) != 882 {
		t.Fatalf("full campaign %d, want 882", len(all))
	}
	sub := ScenarioSubset(10)
	if len(sub) != 89 {
		t.Errorf("1-in-10 subset has %d scenarios", len(sub))
	}
}

func TestCampaignDeterministicOrder(t *testing.T) {
	plat := Glucosym()
	run := func() []*trace.Trace {
		traces, err := Run(CampaignConfig{
			Platform:  plat,
			Patients:  []int{0},
			Scenarios: ScenarioSubset(40),
			Parallel:  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return traces
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i].Fault != b[i].Fault || a[i].InitialBG != b[i].InitialBG {
			t.Fatalf("trace %d ordering not deterministic", i)
		}
		for j := range a[i].Samples {
			if a[i].Samples[j] != b[i].Samples[j] {
				t.Fatalf("trace %d sample %d differs across runs", i, j)
			}
		}
	}
}

// TestCampaignGoldenDeterminism is the campaign-side golden test: the
// serialized traces of a campaign are byte-identical at Parallel=1 and
// Parallel=NumCPU (the fleet engine's scheduling never leaks into
// results).
func TestCampaignGoldenDeterminism(t *testing.T) {
	run := func(parallel int) []byte {
		traces, err := Run(CampaignConfig{
			Platform:  Glucosym(),
			Patients:  []int{0, 7},
			Scenarios: ScenarioSubset(50),
			Steps:     50,
			Parallel:  parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, tr := range traces {
			if err := tr.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	golden := run(1)
	if got := run(runtime.NumCPU()); !bytes.Equal(got, golden) {
		t.Fatal("campaign traces differ between Parallel=1 and Parallel=NumCPU")
	}
}

func TestFaultFreeRuns(t *testing.T) {
	traces, err := FaultFree(Glucosym(), []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(fault.DefaultInitialBGs) {
		t.Fatalf("%d fault-free traces", len(traces))
	}
	for _, tr := range traces {
		if tr.Faulty() {
			t.Error("fault-free trace marked faulty")
		}
	}
}

func TestByPatient(t *testing.T) {
	traces := quickCampaign(t, Glucosym())
	groups := ByPatient(traces)
	if len(groups) != 2 {
		t.Fatalf("%d patient groups, want 2", len(groups))
	}
}

// quickSuiteFixture is a small trained suite over quickCampaign's
// traces: fold 0 held out for testing, the other three for training.
type quickSuiteFixture struct {
	plat            Platform
	traces          []*trace.Trace
	train, test, ff []*trace.Trace
	suite           *Suite
}

// quickSuite trains the test-scale suite (seconds-long at most).
func quickSuite(t testing.TB) quickSuiteFixture {
	t.Helper()
	plat := Glucosym()
	traces := quickCampaign(t, plat)
	folds := stllearn.Folds(traces, 4)
	train := stllearn.TrainingSet(folds, 0)
	ff, err := FaultFree(plat, []int{0, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := BuildSuite(plat, train, ff, SuiteConfig{
		Seed: 1, MaxMLSamples: 3000, MaxLSTMWindows: 500,
		MLPEpochs: 3, LSTMEpochs: 2,
		MLPHidden: []int{16}, LSTMUnits: []int{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return quickSuiteFixture{plat: plat, traces: traces, train: train, test: folds[0], ff: ff, suite: suite}
}

func TestSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("suite training is seconds-long")
	}
	fx := quickSuite(t)
	plat, test, suite := fx.plat, fx.test, fx.suite
	// Thresholds learned per patient.
	if len(suite.PatientThresholds) == 0 {
		t.Error("no patient thresholds")
	}
	if suite.Lambda10 >= suite.Lambda90 {
		t.Errorf("percentiles %v/%v", suite.Lambda10, suite.Lambda90)
	}

	// Every monitor evaluates.
	evals, err := suite.EvaluateAll(nil, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != len(MonitorNames) {
		t.Fatalf("%d evals", len(evals))
	}
	for _, ev := range evals {
		total := ev.Sample.TP + ev.Sample.FP + ev.Sample.FN + ev.Sample.TN
		if total == 0 {
			t.Errorf("%s: empty sample confusion", ev.Monitor)
		}
		if ev.StepTime <= 0 {
			t.Errorf("%s: no step time", ev.Monitor)
		}
	}

	// Rendering produces non-empty output.
	if out := RenderEvals("test", evals); !strings.Contains(out, "CAWT") {
		t.Error("RenderEvals missing CAWT row")
	}
	if out := RenderReaction(evals); !strings.Contains(out, "early-detection") {
		t.Error("RenderReaction malformed")
	}

	// Unknown monitor is rejected.
	if _, err := suite.NewMonitor("bogus", "p"); err == nil {
		t.Error("unknown monitor should fail")
	}

	// Table VIII comparison runs.
	rows, err := suite.TableVIII(test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Error("no Table VIII rows")
	}
	if out := RenderTableVIII(rows); !strings.Contains(out, "population") {
		t.Error("RenderTableVIII malformed")
	}

	// Mitigation rerun on a small scenario set. Every session's MLP
	// monitor shares the suite's one trained model, so the MLP row at
	// Parallel 2 runs concurrent inference on it (make race checks that)
	// and must equal the single-shard row exactly.
	scen := ScenarioSubset(60)
	baseline, err := Run(CampaignConfig{Platform: plat, Patients: []int{0}, Scenarios: scen})
	if err != nil {
		t.Fatal(err)
	}
	var mit []MitigationResult
	for _, name := range []string{"CAWT", "MLP"} {
		var rows []MitigationResult
		for _, parallel := range []int{1, 2} {
			res, err := suite.EvaluateMitigation(name, baseline, CampaignConfig{
				Patients: []int{0}, Scenarios: scen, Parallel: parallel,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Monitor != name {
				t.Errorf("monitor %q, want %q", res.Monitor, name)
			}
			rows = append(rows, res)
		}
		if rows[0] != rows[1] {
			t.Errorf("%s mitigation differs across Parallel: %+v at 1 vs %+v at 2", name, rows[0], rows[1])
		}
		mit = append(mit, rows[0])
	}
	if out := RenderMitigation(mit); !strings.Contains(out, "recovery") {
		t.Error("RenderMitigation malformed")
	}
}

func TestFigures(t *testing.T) {
	traces := quickCampaign(t, Glucosym())
	cov := HazardCoverageByPatient(traces)
	if len(cov.Patients) != 2 {
		t.Fatalf("%d patients in coverage", len(cov.Patients))
	}
	if cov.Overall < 0 || cov.Overall > 1 {
		t.Errorf("overall coverage %v", cov.Overall)
	}
	if !strings.Contains(cov.Render(), "Fig 7a") {
		t.Error("coverage render malformed")
	}

	tth := TTHDistribution(traces)
	if tth.Count == 0 {
		t.Error("no TTH values — campaign produced no hazards")
	}
	if !strings.Contains(RenderTTH(tth), "Fig 7b") {
		t.Error("TTH render malformed")
	}

	fig8 := CoverageByFaultAndBG(traces)
	if len(fig8.Faults) == 0 || len(fig8.InitialBG) == 0 {
		t.Error("empty Fig 8 matrix")
	}
	if !strings.Contains(fig8.Render(), "Fig 8") {
		t.Error("Fig 8 render malformed")
	}

	curves := LossCurves(-2, 4, 25)
	if len(curves.Margins) != 25 || len(curves.Curves) != 4 {
		t.Errorf("loss curves %d margins, %d curves", len(curves.Margins), len(curves.Curves))
	}
	if !strings.Contains(curves.Render(), "TMEE") {
		t.Error("loss render missing TMEE")
	}
}

func TestRunValidatesJobs(t *testing.T) {
	plat := Glucosym()
	_, err := Run(CampaignConfig{
		Platform: plat,
		Patients: []int{99}, // out of cohort
		Scenarios: []fault.Scenario{
			{Fault: fault.Fault{Kind: fault.KindMax, Target: "glucose", Value: 400, StartStep: 0, Duration: 5}, InitialBG: 120},
		},
	})
	if err == nil {
		t.Error("invalid patient index should fail")
	}
}
