package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/closedloop"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// ragged copies traces with unequal lengths (trace k loses (13k mod n)
// trailing samples, so some end before the LSTM window fills) and
// inserts an empty trace in the middle: 38 lanes from the quick suite's
// 37 test traces, not a multiple of the four-lane tile.
func ragged(traces []*trace.Trace) []*trace.Trace {
	out := make([]*trace.Trace, 0, len(traces)+1)
	for k, tr := range traces {
		if k == len(traces)/2 {
			empty := *tr
			empty.Samples = nil
			out = append(out, &empty)
		}
		cp := *tr
		n := tr.Len() - (13*k)%tr.Len()
		cp.Samples = append([]trace.Sample(nil), tr.Samples[:n]...)
		out = append(out, &cp)
	}
	return out
}

// TestEvaluateMonitorBatchedMatchesReplay: every suite monitor replays
// as batched lanes split over workers (CAWT and MPC one batch per
// patient run within a chunk), and every per-sample verdict (and so
// every annotated alarm and every metric) must equal a per-session
// monitor.Replay of the patient's one-lane monitor at any worker count.
func TestEvaluateMonitorBatchedMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("suite training is seconds-long")
	}
	fx := quickSuite(t)
	traces := ragged(fx.test)
	if len(traces)%4 == 0 {
		t.Fatalf("%d lanes: want a lane count that is not a multiple of 4", len(traces))
	}
	patients := make(map[string]bool)
	for _, tr := range traces {
		patients[tr.PatientID] = true
	}
	if len(patients) < 2 {
		t.Fatalf("test traces cover %d patients; the per-patient monitors need two", len(patients))
	}
	for _, name := range append(MonitorNames, "CAWT-pop") {
		want := make([][]monitor.Verdict, len(traces))
		for k, tr := range traces {
			m, err := fx.suite.NewMonitor(name, tr.PatientID)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = monitor.Replay(m, tr)
		}
		var first Eval
		for _, workers := range []int{1, 2, 3} {
			got, _, err := replay(name, traces, workers, patientSpecific(name), func(patientID string) (monitor.BatchMonitor, error) {
				return fx.suite.NewBatchMonitor(name, patientID)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %d workers: batched verdicts differ from monitor.Replay", name, workers)
			}
			ev, err := fx.suite.evaluateMonitor(name, traces, workers)
			if err != nil {
				t.Fatal(err)
			}
			for k, tr := range traces {
				for i, s := range tr.Samples {
					if v := want[k][i]; s.Alarm != v.Alarm || s.AlarmHazard != v.Hazard {
						t.Fatalf("%s at %d workers: trace %d sample %d annotated %v/%v, replay %v/%v",
							name, workers, k, i, s.Alarm, s.AlarmHazard, v.Alarm, v.Hazard)
					}
				}
			}
			if ev.StepTime <= 0 {
				t.Errorf("%s at %d workers: no step time", name, workers)
			}
			ev.StepTime = 0
			if workers == 1 {
				first = ev
			} else if !reflect.DeepEqual(ev, first) {
				t.Errorf("%s: eval at %d workers %+v, at 1 worker %+v", name, workers, ev, first)
			}
		}
	}
}

// BenchmarkReplayLSTM prices one LSTM replay over a fixed trace set
// (the quick campaign's 37 held-out traces, 150 cycles each) with the
// default 32-16 architecture: per-session monitor.Replay one trace at a
// time, monitor.ReplayBatch with every trace a lane of one batch
// monitor, and EvaluateMonitor's split of the lanes over GOMAXPROCS
// workers.
func BenchmarkReplayLSTM(b *testing.B) {
	plat := Glucosym()
	traces := quickCampaign(b, plat)
	folds := stllearn.Folds(traces, 4)
	ff, err := FaultFree(plat, []int{0, 4}, 0)
	if err != nil {
		b.Fatal(err)
	}
	suite, err := BuildSuite(plat, stllearn.TrainingSet(folds, 0), ff, SuiteConfig{
		Seed: 1, MaxMLSamples: 1000, MaxLSTMWindows: 200,
		MLPEpochs: 1, LSTMEpochs: 1, MLPHidden: []int{8},
	})
	if err != nil {
		b.Fatal(err)
	}
	test := folds[0]
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, tr := range test {
				m, err := suite.NewMonitor("LSTM", tr.PatientID)
				if err != nil {
					b.Fatal(err)
				}
				monitor.Replay(m, tr)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		m, err := suite.NewBatchMonitor("LSTM", "")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			monitor.ReplayBatch(m, test)
		}
	})
	b.Run("split", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := suite.EvaluateMonitor("LSTM", test); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestMitigationCampaignMatchesClosedLoop: Table VII's campaigns (one
// per patient, each session's monitor a lane of that patient's shard
// monitors) must reproduce, trace for trace, a closedloop.Run of every
// session alone with the patient's one-lane monitor — for the
// threshold-per-patient CAWT, the basal-per-patient MPC and the shared
// DT, on two patients.
func TestMitigationCampaignMatchesClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("suite training is seconds-long")
	}
	fx := quickSuite(t)
	scen := ScenarioSubset(60)
	patients := []int{0, 4}
	for _, name := range []string{"CAWT", "MPC", "DT"} {
		got, err := fx.suite.mitigationRuns(name, CampaignConfig{Patients: patients, Scenarios: scen})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(patients)*len(scen) {
			t.Fatalf("%s: %d traces, want %d", name, len(got), len(patients)*len(scen))
		}
		k, mitigated := 0, 0
		for _, idx := range patients {
			for _, sc := range scen {
				p, err := fx.plat.NewPatient(idx)
				if err != nil {
					t.Fatal(err)
				}
				ctrl, err := fx.plat.NewController(p.Basal())
				if err != nil {
					t.Fatal(err)
				}
				m, err := fx.suite.NewMonitor(name, p.ID())
				if err != nil {
					t.Fatal(err)
				}
				f := sc.Fault
				want, err := closedloop.Run(closedloop.Config{
					Platform: fx.plat.Name + "/" + ctrl.Name(), InitialBG: sc.InitialBG,
					Patient: p, Controller: ctrl, Fault: &f, Monitor: m,
					Mitigation: closedloop.MitigationConfig{Enabled: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(traceCSV(t, got[k]), traceCSV(t, want)) {
					t.Fatalf("%s: trace %d (%s, %s from %v mg/dL) differs from the per-session closed loop",
						name, k, p.ID(), sc.Fault.Name(), sc.InitialBG)
				}
				for _, s := range want.Samples {
					if s.Mitigated {
						mitigated++
					}
				}
				k++
			}
		}
		if mitigated == 0 {
			t.Fatalf("%s never mitigated — comparison is vacuous", name)
		}
	}
}

// traceCSV serializes one trace.
func traceCSV(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEvaluateMitigationRejectsMismatchedBaseline: Table VII pairs
// trace i of the baseline with trace i of the rerun, so a baseline of
// the same size from another patient or another scenario order must
// fail, naming the first trace that differs; and a campaign that lists
// a patient twice is rejected although each per-patient campaign lists
// it once.
func TestEvaluateMitigationRejectsMismatchedBaseline(t *testing.T) {
	plat := Glucosym()
	basals, err := cohortBasals(plat)
	if err != nil {
		t.Fatal(err)
	}
	s := &Suite{Platform: plat, PopThresholds: scs.Defaults(scs.TableI()), basals: basals}
	scen := ScenarioSubset(90)
	baseline := func(patient int, scen []fault.Scenario) []*trace.Trace {
		traces, err := Run(CampaignConfig{Platform: plat, Patients: []int{patient}, Scenarios: scen})
		if err != nil {
			t.Fatal(err)
		}
		return traces
	}
	cfg := CampaignConfig{Patients: []int{0}, Scenarios: scen}
	if _, err := s.EvaluateMitigation("CAWT", baseline(0, scen), cfg); err != nil {
		t.Fatalf("matching baseline: %v", err)
	}
	reversed := slices.Clone(scen)
	slices.Reverse(reversed)
	n := len(scen)
	swapped := slices.Clone(scen)
	swapped[n-2], swapped[n-1] = swapped[n-1], swapped[n-2]
	for _, c := range []struct {
		name  string
		base  []*trace.Trace
		trace string
	}{
		{"patient 4 baseline", baseline(4, scen), "trace 0:"},
		{"reversed scenarios", baseline(0, reversed), "trace 0:"},
		{"last two scenarios swapped", baseline(0, swapped), fmt.Sprintf("trace %d:", n-2)},
	} {
		_, err := s.EvaluateMitigation("CAWT", c.base, cfg)
		if err == nil || !strings.Contains(err.Error(), c.trace) {
			t.Errorf("%s: err %v, want a mismatch naming %q", c.name, err, c.trace)
		}
	}
	dup := CampaignConfig{Patients: []int{0, 4, 0}, Scenarios: scen}
	if _, err := s.EvaluateMitigation("CAWT", nil, dup); err == nil || !strings.Contains(err.Error(), "duplicate patient") {
		t.Errorf("patient listed twice: err %v, want a duplicate-patient rejection", err)
	}
}

// TestPatientMonitorsNeedCohortPatient: CAWT and MPC are built from a
// patient's own thresholds and basal, so replaying another platform's
// trace through them is an error that names the patient, not a silent
// population table and a made-up basal. A cohort patient without
// training traces runs CAWT on the population table.
func TestPatientMonitorsNeedCohortPatient(t *testing.T) {
	if testing.Short() {
		t.Skip("suite training is seconds-long")
	}
	fx := quickSuite(t)
	foreign, err := FaultFree(T1DS2013(), []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := foreign[0].PatientID
	for _, name := range []string{"CAWT", "MPC"} {
		ev, err := fx.suite.EvaluateMonitor(name, foreign)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q is not one", id)) {
			t.Errorf("%s over a %s trace on a %s suite: %+v, %v; want an error naming %q",
				name, T1DS2013().Name, fx.plat.Name, ev.Sample, err, id)
		}
	}

	replayAs := func(name, patientID string) [][]monitor.Verdict {
		t.Helper()
		b, err := fx.suite.NewBatchMonitor(name, patientID)
		if err != nil {
			t.Fatal(err)
		}
		return monitor.ReplayBatch(b, fx.test)
	}
	pop := replayAs("CAWT-pop", "")
	if reflect.DeepEqual(replayAs("CAWT", fx.test[0].PatientID), pop) {
		t.Fatal("a trained patient's CAWT replays like the population table: the fallback check below would be vacuous")
	}
	untrained := fx.plat.Name + "-1"
	if _, ok := fx.suite.PatientThresholds[untrained]; ok {
		t.Fatalf("%s has thresholds of its own", untrained)
	}
	if !reflect.DeepEqual(replayAs("CAWT", untrained), pop) {
		t.Errorf("CAWT for %s, a cohort patient without training traces, does not replay like the population table", untrained)
	}
}
