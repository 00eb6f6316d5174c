package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/scs"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// paperPin is the sha256 of the pinned table values (paperDigest) for
// the default seed.
const paperPin = "6f1ee45b4603af72f853d6c30bbf661b871d6d00b78d6714d37d74d170ac9ab7"

// paperUnitSeconds is about how long one regeneration takes on a 2-vCPU
// host; it sets the number of regenerations per window, which is fixed
// by the window so that every run trains with the same suite seeds.
const paperUnitSeconds = 5

// paper regenerates the cmd/experiments tables for glucosym at reduced
// scale: a thinned campaign, the bench_test.go fixture's SuiteConfig,
// then Figs. 7-8, Tables V/VI, Fig. 9, the Table VII mitigation reruns,
// Table VIII and the Section VI ablations. A throughput block is one
// regeneration; an operation is one stage, and its latency is the time
// from the start of the regeneration until the stage's tables are done.
// A window of n regenerations trains with n/2 distinct suite seeds twice
// each, so a run's times average over seeds and every repeat doubles as
// a determinism check. Regenerations last seconds and are mostly model
// training, which the host's slow phases barely slow.
type paper struct {
	o        options
	platform experiment.Platform
	thin     int
	mitThin  int
	suite    experiment.SuiteConfig
	digests  map[int64]string // the first regeneration's digest, by suite seed
}

// setupReps is high because set-up is a few short fleet runs, whose
// time a single host stall moves.
func (w *paper) setupReps() int { return 13 }

func (w *paper) setUp() error {
	w.platform = experiment.Glucosym()
	w.thin, w.mitThin = 32, 128
	w.suite = experiment.SuiteConfig{
		MaxMLSamples: 10000, MaxLSTMWindows: 2000,
		MLPEpochs: 8, LSTMEpochs: 4,
	}
	if w.o.small {
		w.thin, w.mitThin = 147, 294
		w.suite.MaxMLSamples, w.suite.MaxLSTMWindows = 1000, 200
		w.suite.MLPEpochs, w.suite.LSTMEpochs = 1, 1
	}
	// Warm-up: the pipeline's simulation stages, the thinned campaign, the
	// mitigation baseline and the fault-free runs.
	for _, thin := range []int{w.thin, w.mitThin} {
		if _, err := experiment.Run(experiment.CampaignConfig{Platform: w.platform, Scenarios: experiment.ScenarioSubset(thin)}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if _, err := experiment.FaultFree(w.platform, nil, 0); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (w *paper) tearDown() {}

// suiteSeed is the i-th suite seed of the workload.
func (w *paper) suiteSeed(i int) int64 { return derive(w.o.seed, uint64(200+i)) }

// regenerate runs the pipeline once with the given suite seed, recording
// each stage as a span of the given unit. It returns the digest of its
// checked tables and the training set and trace count the traced run's
// threshold-learning measurement needs.
func (w *paper) regenerate(unit int, seed int64, spans *spanLog) (digest string, train []*trace.Trace, traces int, err error) {
	p := w.platform
	sc := w.suite
	sc.Seed = seed
	var all, faultFree, test []*trace.Trace
	var suite *experiment.Suite
	var evals []experiment.Eval
	var mit []experiment.MitigationResult
	var coverage float64
	var out strings.Builder // the rendered tables, generated as cmd/experiments does and dropped
	stages := []struct {
		name string
		run  func() error
	}{
		{"experiment.campaign", func() (err error) {
			if all, err = experiment.Run(experiment.CampaignConfig{Platform: p, Scenarios: experiment.ScenarioSubset(w.thin)}); err != nil {
				return err
			}
			folds := stllearn.Folds(all, 4)
			train, test = stllearn.TrainingSet(folds, 0), folds[0]
			return nil
		}},
		{"experiment.figures", func() error {
			out.WriteString(experiment.LossCurves(-2, 4, 31).Render())
			cov := experiment.HazardCoverageByPatient(all)
			coverage = cov.Overall
			out.WriteString(cov.Render())
			out.WriteString(experiment.RenderTTH(experiment.TTHDistribution(all)))
			out.WriteString(experiment.CoverageByFaultAndBG(all).Render())
			return nil
		}},
		{"experiment.faultfree", func() (err error) {
			faultFree, err = experiment.FaultFree(p, nil, 0)
			return err
		}},
		{"experiment.suite", func() (err error) {
			suite, err = experiment.BuildSuite(p, train, faultFree, sc)
			return err
		}},
		{"experiment.evaluate", func() (err error) {
			if evals, err = suite.EvaluateAll(nil, test); err != nil {
				return err
			}
			out.WriteString(experiment.RenderEvals("Tables V & VI", evals))
			out.WriteString(experiment.RenderReaction(evals))
			return nil
		}},
		{"experiment.mitigation", func() error {
			scenarios := experiment.ScenarioSubset(w.mitThin)
			baseline, err := experiment.Run(experiment.CampaignConfig{Platform: p, Scenarios: scenarios})
			if err != nil {
				return err
			}
			for _, name := range []string{"CAWT", "DT", "MLP", "MPC"} {
				cfg := experiment.CampaignConfig{Scenarios: scenarios}
				if name == "MLP" {
					// Every session's MLP monitor shares one ml.MLP, whose
					// inference writes shared scratch buffers: at Parallel > 1
					// that is a data race that makes this row vary between
					// runs, so it runs on one shard and stays exact.
					cfg.Parallel = 1
				}
				res, err := suite.EvaluateMitigation(name, baseline, cfg)
				if err != nil {
					return err
				}
				mit = append(mit, res)
			}
			out.WriteString(experiment.RenderMitigation(mit))
			return nil
		}},
		{"experiment.tableviii", func() error {
			rows, err := suite.TableVIII(test, nil)
			out.WriteString(experiment.RenderTableVIII(rows))
			return err
		}},
		{"experiment.ablation", func() error {
			rows, err := experiment.LossAblation(train, test)
			if err != nil {
				return err
			}
			out.WriteString(experiment.RenderLossAblation(rows))
			adv, err := experiment.AdversarialAblation(faultFree, train, test)
			out.WriteString(experiment.RenderAdversarialAblation(adv))
			return err
		}},
		{"experiment.ffgen", func() error {
			gen, err := suite.EvaluateFaultFreeGeneralization([]string{"CAWT", "DT", "MLP", "LSTM"}, test, faultFree)
			out.WriteString(experiment.RenderFaultFreeGeneralization(gen))
			return err
		}},
	}
	for _, st := range stages {
		t0 := now()
		err := st.run()
		spans.add(st.name, "regeneration", unit, t0, now())
		if err != nil {
			return "", nil, 0, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return paperDigest(evals, mit, coverage), train, len(all), nil
}

// learn times threshold learning alone, stllearn.LearnPerPatient and
// stllearn.Learn on a regeneration's training set, as a span of the
// unit. It runs after the regeneration's clock has stopped; the rest of
// experiment.suite is ML training.
func (w *paper) learn(unit int, train []*trace.Trace, spans *spanLog) (examples int, err error) {
	t0 := now()
	cfg := stllearn.Config{Loss: w.suite.Loss}
	if _, err := stllearn.LearnPerPatient(scs.TableI(), train, cfg); err != nil {
		return 0, err
	}
	_, rep, err := stllearn.Learn(scs.TableI(), train, cfg)
	if err != nil {
		return 0, err
	}
	spans.add("stllearn.learn", "", unit, t0, now())
	return rep.TotalExamples, nil
}

// paperDigest renders the checked table values exactly: Tables V/VI F1
// and FPR at sample and simulation level, Table VII recovery, and the
// campaign's hazard coverage. Eval.StepTime is wall clock and left out.
func paperDigest(evals []experiment.Eval, mit []experiment.MitigationResult, coverage float64) string {
	var b strings.Builder
	for _, e := range evals {
		fmt.Fprintf(&b, "%s f1=%v/%v fpr=%v/%v;", e.Monitor,
			e.Sample.F1(), e.Simulation.F1(), e.Sample.FPR(), e.Simulation.FPR())
	}
	for _, m := range mit {
		fmt.Fprintf(&b, "%s recovery=%v;", m.Monitor, m.Outcome.RecoveryRate)
	}
	fmt.Fprintf(&b, "coverage=%v", coverage)
	return b.String()
}

func (w *paper) phase(traced bool, seconds float64) (phaseResult, error) {
	p := phaseResult{spans: &spanLog{}}
	layers := map[string]float64{}
	var rates []float64
	start := time.Now()
	units := max(1, int(math.Round(seconds/paperUnitSeconds)))
	for unit := range units {
		seed := w.suiteSeed(unit % max(1, units/2))
		t0 := now()
		digest, train, traces, err := w.regenerate(unit, seed, p.spans)
		t1 := now()
		p.spans.add("regeneration", "", unit, t0, t1)
		stages := int64(p.spans.count(unit, "regeneration"))
		p.attempted += stages
		if err != nil {
			p.failed++
			p.checkf("regeneration %d: %v", unit, err)
			continue
		}
		rates = append(rates, float64(stages)/(float64(t1-t0)/1e9))
		w.check(&p, seed, digest)
		if unit == 0 {
			p.digest = digest
		}
		if traced {
			examples, err := w.learn(unit, train, p.spans)
			if err != nil {
				p.checkf("regeneration %d: threshold learning: %v", unit, err)
				continue
			}
			layers["stllearn.examples"] = float64(examples)
			layers["experiment.traces"] = float64(traces)
		}
	}
	p.seconds = time.Since(start).Seconds()
	p.rate = sustained(rates)
	logBlocks("paper", rates)
	// A table's latency runs from the start of its regeneration to the
	// end of the stage that produces it.
	began := map[int]int64{}
	for _, s := range p.spans.spans {
		if s.Name == "regeneration" {
			began[s.Unit] = s.Start
		}
	}
	for _, s := range p.spans.spans {
		if s.Parent == "regeneration" {
			p.latencyMs = append(p.latencyMs, float64(s.End-began[s.Unit])/1e6)
		}
	}
	if traced {
		for name, secs := range p.spans.durations() {
			if name == "regeneration" {
				name = "experiment.regeneration"
			}
			layers[name+"_s"] = median(secs)
		}
		p.layers = layers
	}
	return p, nil
}

// check requires every regeneration to reproduce the first one with the
// same suite seed, and the default workload's first suite seed to match
// the pin.
func (w *paper) check(p *phaseResult, seed int64, digest string) {
	if w.digests == nil {
		w.digests = make(map[int64]string)
	}
	if first, ok := w.digests[seed]; !ok {
		w.digests[seed] = digest
	} else if digest != first {
		p.checkf("suite seed %d: tables differ from the first regeneration: %s vs %s", seed, digest, first)
	}
	sum := sha256.Sum256([]byte(digest))
	if h := hex.EncodeToString(sum[:]); w.o.pinned() && seed == w.suiteSeed(0) && h != paperPin {
		p.checkf("tables %s hash %s, pinned %s", digest, h, paperPin)
	}
}
