// Mitigation: rerun attack scenarios with the safety monitor wired into
// the actuation path (Algorithm 1) — when the monitor predicts H1 the
// unsafe command is replaced with zero insulin, and for H2 with a fixed
// corrective maximum — and measure how many hazards are prevented.
package main

import (
	"fmt"
	"log"

	apsmonitor "repro"
)

func main() {
	platform := apsmonitor.MustPlatform("glucosym")

	// Attack scenarios: every 12th scenario of the full campaign matrix
	// against two patients.
	scenarios := apsmonitor.QuickScenarios(12)
	patients := []int{0, 4}

	fmt.Println("baseline campaign (no monitor)...")
	baseline, err := apsmonitor.RunCampaign(apsmonitor.CampaignConfig{
		Platform: platform, Patients: patients, Scenarios: scenarios,
	})
	if err != nil {
		log.Fatal(err)
	}
	var baseHazards int
	for _, tr := range baseline {
		if tr.Hazardous() {
			baseHazards++
		}
	}
	fmt.Printf("%d simulations, %d hazardous\n\n", len(baseline), baseHazards)

	// Learn patient-specific thresholds from the baseline traces, then
	// rerun the same scenarios with the monitor mitigating in-loop.
	rules := apsmonitor.TableI()
	thresholds, _, err := apsmonitor.LearnThresholds(rules, baseline, apsmonitor.LearnConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Rerun the same scenarios twice: the paper's fixed Algorithm 1
	// corrective action, and the margin-scaled variant — the monitor's
	// verdicts carry a signed robustness margin (one streaming rule
	// evaluation yields alarm, margin, and rule attribution), and the
	// correction is blended toward the issued command in proportion to
	// how shallow the violation is, so false alarms at the rule boundary
	// barely perturb delivery.
	mitigatedCfg := apsmonitor.CampaignConfig{
		Platform: platform, Patients: patients, Scenarios: scenarios,
		Mitigate: true,
		NewBatchMonitor: func() (apsmonitor.BatchMonitor, error) {
			return apsmonitor.NewBatchCAWTMonitor(rules, thresholds)
		},
	}
	fmt.Println("rerunning with CAWT monitor + Algorithm 1 mitigation (fixed)...")
	mitigated, err := apsmonitor.RunCampaign(mitigatedCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rerunning with margin-scaled mitigation (ScaleByMargin)...")
	scaledCfg := mitigatedCfg
	scaledCfg.Mitigation = apsmonitor.MitigationConfig{ScaleByMargin: true}
	scaled, err := apsmonitor.RunCampaign(scaledCfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-14s %14s %12s %12s\n", "strategy", "recovery rate", "new hazards", "unprevented")
	for _, row := range []struct {
		name   string
		traces []*apsmonitor.Trace
	}{{"fixed", mitigated}, {"margin-scaled", scaled}} {
		var prevented, newHazards, stillHazard int
		for i := range baseline {
			was, is := baseline[i].Hazardous(), row.traces[i].Hazardous()
			switch {
			case was && !is:
				prevented++
			case was && is:
				stillHazard++
			case !was && is:
				newHazards++
			}
		}
		fmt.Printf("%-14s %13.1f%% %12d %12d\n", row.name,
			100*float64(prevented)/float64(baseHazards), newHazards, stillHazard)
	}

	// Show one prevented case in detail.
	for i := range baseline {
		if baseline[i].Hazardous() && !mitigated[i].Hazardous() {
			b, m := baseline[i], mitigated[i]
			fmt.Printf("\nexample: %s on %s starting at %.0f mg/dL\n",
				b.Fault.Name, b.PatientID, b.InitialBG)
			fmt.Printf("  without monitor: %s hazard at t=%.0f min, BG nadir/peak %s\n",
				b.DominantHazard(), float64(b.FirstHazardStep())*b.CycleMin, extremes(b))
			fmt.Printf("  with mitigation: no hazard, BG stayed %s; %d cycles overridden\n",
				extremes(m), overridden(m))
			break
		}
	}
}

func extremes(tr *apsmonitor.Trace) string {
	lo, hi := tr.Samples[0].BG, tr.Samples[0].BG
	for _, s := range tr.Samples {
		if s.BG < lo {
			lo = s.BG
		}
		if s.BG > hi {
			hi = s.BG
		}
	}
	return fmt.Sprintf("[%.0f, %.0f]", lo, hi)
}

func overridden(tr *apsmonitor.Trace) int {
	var n int
	for _, s := range tr.Samples {
		if s.Mitigated {
			n++
		}
	}
	return n
}
