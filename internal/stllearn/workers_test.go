package stllearn_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/scs"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// trainingFold is the training set of the paper workload's first fold:
// three of four folds of a thin-32 glucosym campaign.
func trainingFold(tb testing.TB) []*trace.Trace {
	all, err := experiment.Run(experiment.CampaignConfig{Platform: experiment.Glucosym(), Scenarios: experiment.ScenarioSubset(32)})
	if err != nil {
		tb.Fatal(err)
	}
	return stllearn.TrainingSet(stllearn.Folds(all, 4), 0)
}

// sameThresholds reports the first rule whose threshold differs in bits.
func sameThresholds(a, b scs.Thresholds) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d thresholds vs %d", len(a), len(b))
	}
	for id, beta := range a {
		if other, ok := b[id]; !ok || math.Float64bits(beta) != math.Float64bits(other) {
			return fmt.Errorf("rule %d: β %v vs %v", id, beta, other)
		}
	}
	return nil
}

// serialLearn is the loop Learn ran before it spread its fits over
// workers: every rule in order, on the calling goroutine.
func serialLearn(tb testing.TB, rules []scs.Rule, traces []*trace.Trace, cfg stllearn.Config) (scs.Thresholds, []stllearn.RuleReport) {
	th := make(scs.Thresholds, len(rules))
	var reps []stllearn.RuleReport
	for _, r := range rules {
		rep, err := stllearn.LearnRule(r, stllearn.ExtractExamples(r, traces, cfg), cfg)
		if err != nil {
			tb.Fatal(err)
		}
		th[r.ID] = rep.Beta
		reps = append(reps, rep)
	}
	return th, reps
}

// TestLearnBitIdenticalAcrossWorkers learns per-patient and population
// thresholds under every loss at 1, 2 and 3 workers: thresholds and
// reports must keep the serial loop's bits.
func TestLearnBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a thin-32 campaign")
	}
	train := trainingFold(t)
	byPatient := map[string][]*trace.Trace{}
	for _, tr := range train {
		byPatient[tr.PatientID] = append(byPatient[tr.PatientID], tr)
	}
	if len(byPatient) < 2 {
		t.Fatalf("the fold holds %d patients", len(byPatient))
	}
	rules := scs.TableI()
	for _, loss := range []stllearn.Loss{stllearn.TMEE{}, stllearn.TeLEx{}, stllearn.MSE{}, stllearn.MAE{}} {
		cfg := stllearn.Config{Loss: loss}
		wantPop, wantReps := serialLearn(t, rules, train, cfg)
		for _, workers := range []int{1, 2, 3} {
			per, err := stllearn.LearnPerPatientWorkers(rules, train, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(per) != len(byPatient) {
				t.Errorf("%s, %d workers: %d patients, want %d", loss.Name(), workers, len(per), len(byPatient))
			}
			for id, group := range byPatient {
				want, _ := serialLearn(t, rules, group, cfg)
				if err := sameThresholds(per[id], want); err != nil {
					t.Errorf("%s, %d workers, patient %s: %v", loss.Name(), workers, id, err)
				}
			}
			pop, rep, err := stllearn.LearnWorkers(rules, train, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameThresholds(pop, wantPop); err != nil {
				t.Errorf("%s, %d workers, population: %v", loss.Name(), workers, err)
			}
			if len(rep.Rules) != len(wantReps) {
				t.Fatalf("%s, %d workers: %d rule reports, want %d", loss.Name(), workers, len(rep.Rules), len(wantReps))
			}
			total := 0
			for i, r := range rep.Rules {
				w := wantReps[i]
				total += w.Examples
				if r.RuleID != w.RuleID || r.Examples != w.Examples || r.UsedDefault != w.UsedDefault || r.Converged != w.Converged ||
					math.Float64bits(r.Beta) != math.Float64bits(w.Beta) || math.Float64bits(r.LossValue) != math.Float64bits(w.LossValue) {
					t.Errorf("%s, %d workers: rule report %+v, want %+v", loss.Name(), workers, r, w)
				}
			}
			if rep.TotalExamples != total || total == 0 {
				t.Errorf("%s, %d workers: %d examples in the report, %d in its rules", loss.Name(), workers, rep.TotalExamples, total)
			}
		}
	}
}

// BenchmarkLearnPerPatient learns the paper workload's per-patient
// thresholds from a thin-32 training fold on one worker and on
// GOMAXPROCS workers.
func BenchmarkLearnPerPatient(b *testing.B) {
	train := trainingFold(b)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for b.Loop() {
				if _, err := stllearn.LearnPerPatientWorkers(scs.TableI(), train, stllearn.Config{}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
