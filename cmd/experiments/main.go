// Command experiments regenerates every table and figure of the paper's
// evaluation (Section V) on both closed-loop platforms: the resilience
// analysis (Figs. 7a, 7b, 8), the loss-function comparison (Fig. 3), the
// monitor-accuracy tables (V and VI), the reaction-time comparison
// (Fig. 9), the mitigation study (Table VII), the patient-specific vs
// population comparison (Table VIII), resource utilization (Section
// V-E6), and the Section VI ablations.
//
// The full campaign (-thin 1) is the paper's 8,820 simulations per
// platform; -thin 4 reproduces the same shapes in a few minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	apsmonitor "repro"
	"repro/internal/experiment"
	"repro/internal/stllearn"
)

func main() {
	var (
		thin    = flag.Int("thin", 4, "run every k-th campaign scenario (1 = full paper scale)")
		seed    = flag.Int64("seed", 1, "training seed")
		mitThin = flag.Int("mitigation-thin", 0, "scenario thinning for the mitigation rerun (0 = 4x the campaign thinning)")
		only    = flag.String("platform", "", "restrict to one platform (glucosym or t1ds2013)")
	)
	flag.Parse()
	if *mitThin == 0 {
		*mitThin = *thin * 4
	}
	platforms := experiment.Platforms()
	if *only != "" {
		p, err := apsmonitor.PlatformByName(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		platforms = []experiment.Platform{p}
	}

	fmt.Print(experiment.LossCurves(-2, 4, 31).Render())
	fmt.Println()

	for _, platform := range platforms {
		if err := runPlatform(platform, *thin, *mitThin, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

func runPlatform(platform experiment.Platform, thin, mitThin int, seed int64) error {
	banner := fmt.Sprintf("================ platform %s ================", platform.Name)
	fmt.Println(banner)
	start := time.Now()
	scenarios := experiment.ScenarioSubset(thin)
	traces, err := apsmonitor.RunCampaign(apsmonitor.CampaignConfig{
		Platform:  platform,
		Scenarios: scenarios,
	})
	if err != nil {
		return err
	}
	fmt.Printf("campaign: %d simulations, %.1f%% hazard coverage (%v)\n\n",
		len(traces), 100*apsmonitor.HazardCoverage(traces), time.Since(start).Round(time.Millisecond))

	fmt.Print(experiment.HazardCoverageByPatient(traces).Render())
	fmt.Println()
	fmt.Print(experiment.RenderTTH(experiment.TTHDistribution(traces)))
	fmt.Println()
	fmt.Print(experiment.CoverageByFaultAndBG(traces).Render())
	fmt.Println()

	folds := stllearn.Folds(traces, 4)
	train := stllearn.TrainingSet(folds, 0)
	test := folds[0]
	faultFree, err := apsmonitor.RunFaultFree(platform, nil)
	if err != nil {
		return err
	}
	suite, err := apsmonitor.BuildSuite(platform, train, faultFree, apsmonitor.SuiteConfig{Seed: seed})
	if err != nil {
		return err
	}
	evals, err := suite.EvaluateAll(nil, test)
	if err != nil {
		return err
	}
	fmt.Print(experiment.RenderEvals(
		fmt.Sprintf("Tables V & VI — monitor accuracy on %s (held-out fold)", platform.Name), evals))
	fmt.Println()
	fmt.Print(experiment.RenderReaction(evals))
	fmt.Println()

	fmt.Println("Section V-E6 — per-cycle monitor overhead in replay")
	fmt.Println("  (replay busy time per step, amortized over batched lanes;")
	fmt.Println("   per-session cost per monitor: go test -bench BenchmarkMonitorOverhead .)")
	for _, e := range evals {
		fmt.Printf("  %-10s %v\n", e.Monitor, e.StepTime)
	}
	fmt.Println()

	// Table VII on a thinned scenario set (each monitor requires a full
	// rerun of the campaign with mitigation in the loop).
	mitScenarios := experiment.ScenarioSubset(mitThin)
	baseline, err := apsmonitor.RunCampaign(apsmonitor.CampaignConfig{
		Platform: platform, Scenarios: mitScenarios,
	})
	if err != nil {
		return err
	}
	var mitResults []experiment.MitigationResult
	for _, name := range []string{"CAWT", "DT", "MLP", "MPC"} {
		res, err := suite.EvaluateMitigation(name, baseline, apsmonitor.CampaignConfig{
			Scenarios: mitScenarios,
		})
		if err != nil {
			return err
		}
		mitResults = append(mitResults, res)
	}
	fmt.Print(experiment.RenderMitigation(mitResults))
	fmt.Println()

	rows, err := suite.TableVIII(test, nil)
	if err != nil {
		return err
	}
	fmt.Print(experiment.RenderTableVIII(rows))
	fmt.Println()

	lossRows, err := experiment.LossAblation(train, test)
	if err != nil {
		return err
	}
	fmt.Print(experiment.RenderLossAblation(lossRows))
	fmt.Println()

	adv, err := experiment.AdversarialAblation(faultFree, train, test)
	if err != nil {
		return err
	}
	fmt.Print(experiment.RenderAdversarialAblation(adv))
	fmt.Println()

	gen, err := suite.EvaluateFaultFreeGeneralization([]string{"CAWT", "DT", "MLP", "LSTM"}, test, faultFree)
	if err != nil {
		return err
	}
	fmt.Print(experiment.RenderFaultFreeGeneralization(gen))
	fmt.Printf("\nplatform %s done in %v\n\n", platform.Name, time.Since(start).Round(time.Second))
	return nil
}
