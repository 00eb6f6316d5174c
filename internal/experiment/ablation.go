package experiment

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// LossAblationRow compares threshold learning under one loss function.
type LossAblationRow struct {
	Loss      string
	Converged int // rules that converged
	Learned   int // rules with data-driven thresholds
	Eval      Eval
}

// LossAblation learns patient-specific CAWT thresholds under each
// candidate loss and evaluates the resulting monitors, reproducing the
// paper's claim that TMEE outperforms the TeLEx tightness metric and the
// MSE/MAE strawmen (Section III-C2, Fig. 3).
func LossAblation(training, test []*trace.Trace) ([]LossAblationRow, error) {
	losses := []stllearn.Loss{stllearn.TMEE{}, stllearn.TeLEx{}, stllearn.MSE{}, stllearn.MAE{}}
	rules := scs.TableI()
	out := make([]LossAblationRow, 0, len(losses))
	for _, loss := range losses {
		per, err := stllearn.LearnPerPatient(rules, training, stllearn.Config{Loss: loss})
		if err != nil {
			return nil, err
		}
		row := LossAblationRow{Loss: loss.Name()}
		// Convergence bookkeeping from a population-level fit.
		_, report, err := stllearn.Learn(rules, training, stllearn.Config{Loss: loss})
		if err != nil {
			return nil, err
		}
		for _, r := range report.Rules {
			if r.Converged {
				row.Converged++
			}
			if !r.UsedDefault {
				row.Learned++
			}
		}
		row.Eval, err = evaluatePerPatient(loss.Name(), rules, per, test)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderLossAblation prints the comparison.
func RenderLossAblation(rows []LossAblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation — STL learning loss (patient-specific thresholds)\n")
	fmt.Fprintf(&b, "  %-8s %9s %8s %6s %6s %6s %8s\n",
		"loss", "converged", "learned", "FPR", "FNR", "ACC", "F1")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %9d %8d %6.3f %6.3f %6.3f %8.3f\n",
			r.Loss, r.Converged, r.Learned,
			r.Eval.Sample.FPR(), r.Eval.Sample.FNR(),
			r.Eval.Sample.Accuracy(), r.Eval.Sample.F1())
	}
	return b.String()
}

// AdversarialAblationResult compares thresholds learned from fault-free
// traces against adversarially trained ones (Section VI: "Adversarial
// training improves safety monitor performance").
type AdversarialAblationResult struct {
	FaultFreeTrained Eval
	Adversarial      Eval
}

// AdversarialAblation learns patient-specific thresholds from fault-free
// traces only and from the faulty campaign, evaluating both on the test
// set.
func AdversarialAblation(faultFree, training, test []*trace.Trace) (AdversarialAblationResult, error) {
	rules := scs.TableI()
	var out AdversarialAblationResult

	perFF, err := stllearn.LearnPerPatient(rules, faultFree, stllearn.Config{})
	if err != nil {
		return out, err
	}
	if out.FaultFreeTrained, err = evaluatePerPatient("CAWT-faultfree", rules, perFF, test); err != nil {
		return out, err
	}

	perAdv, err := stllearn.LearnPerPatient(rules, training, stllearn.Config{})
	if err != nil {
		return out, err
	}
	if out.Adversarial, err = evaluatePerPatient("CAWT-adversarial", rules, perAdv, test); err != nil {
		return out, err
	}
	return out, nil
}

// RenderAdversarialAblation prints the comparison.
func RenderAdversarialAblation(r AdversarialAblationResult) string {
	var b strings.Builder
	b.WriteString("Ablation — adversarial (fault-injected) vs fault-free training\n")
	fmt.Fprintf(&b, "  %-18s %6s %6s %6s %8s %6s\n", "training data", "FPR", "FNR", "ACC", "F1", "EDR")
	for _, row := range []struct {
		name string
		e    Eval
	}{
		{"fault-free only", r.FaultFreeTrained},
		{"adversarial (FI)", r.Adversarial},
	} {
		fmt.Fprintf(&b, "  %-18s %6.3f %6.3f %6.3f %8.3f %5.1f%%\n",
			row.name,
			row.e.Sample.FPR(), row.e.Sample.FNR(),
			row.e.Sample.Accuracy(), row.e.Sample.F1(),
			100*row.e.Reaction.EarlyRate)
	}
	return b.String()
}

// FaultFreeGeneralization evaluates already-trained monitors on
// fault-free traces (Section VI: fully supervised ML monitors overfit the
// faulty training distribution; the weakly supervised CAWT barely moves).
// On hazard-free data F1 is undefined, so the comparison reports FPR: the
// fraction of clean samples that still trip the monitor.
type FaultFreeGeneralization struct {
	Monitor      string
	FaultyFPR    float64
	FaultFreeFPR float64
}

// EvaluateFaultFreeGeneralization computes the comparison for the named
// monitors.
func (s *Suite) EvaluateFaultFreeGeneralization(names []string, faulty, faultFree []*trace.Trace) ([]FaultFreeGeneralization, error) {
	out := make([]FaultFreeGeneralization, 0, len(names))
	for _, name := range names {
		evF, err := s.EvaluateMonitor(name, faulty)
		if err != nil {
			return nil, err
		}
		evC, err := s.EvaluateMonitor(name, faultFree)
		if err != nil {
			return nil, err
		}
		out = append(out, FaultFreeGeneralization{
			Monitor:      name,
			FaultyFPR:    evF.Sample.FPR(),
			FaultFreeFPR: evC.Sample.FPR(),
		})
	}
	return out, nil
}

// RenderFaultFreeGeneralization prints the comparison.
func RenderFaultFreeGeneralization(rows []FaultFreeGeneralization) string {
	var b strings.Builder
	b.WriteString("Ablation — false-positive rate on faulty vs fault-free data\n")
	fmt.Fprintf(&b, "  %-10s %12s %14s\n", "monitor", "faulty FPR", "fault-free FPR")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %12.3f %14.3f\n", r.Monitor, r.FaultyFPR, r.FaultFreeFPR)
	}
	return b.String()
}

// evaluatePerPatient scores patient-specific CAWT monitors built from a
// per-patient threshold map, replayed as EvaluateMonitor replays CAWT.
// Patients without a learned table fall back to the rule defaults.
func evaluatePerPatient(name string, rules []scs.Rule, per map[string]scs.Thresholds, traces []*trace.Trace) (Eval, error) {
	return evaluate(name, traces, runtime.GOMAXPROCS(0), true, func(patientID string) (monitor.BatchMonitor, error) {
		th, found := per[patientID]
		if !found {
			th = scs.Defaults(rules)
		}
		return monitor.NewBatchCAWT(rules, th, scs.Params{})
	})
}
