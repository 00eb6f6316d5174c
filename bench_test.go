// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark measures
// the cost of reproducing its artifact from a prepared campaign fixture
// and reports the headline numbers via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as a results summary:
//
//   - Fig. 3: loss-function curves
//   - Figs. 7a/7b, 8: baseline resilience analysis
//   - Tables V/VI, Fig. 9: monitor accuracy and timeliness
//   - Table VII: mitigation study
//   - Table VIII: patient-specific vs population thresholds
//   - Section V-E6: per-cycle monitor overhead (the ns/op of
//     BenchmarkMonitorOverhead/* is the paper's resource-utilization row)
//   - Section VI: ablations
//
// Campaign scale: the fixture thins the 882-scenario matrix by 8 to keep
// a full bench run in minutes; cmd/experiments -thin 1 runs paper scale.
package apsmonitor_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	apsmonitor "repro"
	"repro/internal/closedloop"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/ml"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sim"
	"repro/internal/sim/glucosym"
	"repro/internal/sim/uvapadova"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

type fixture struct {
	platform  experiment.Platform
	traces    []*trace.Trace
	train     []*trace.Trace
	test      []*trace.Trace
	faultFree []*trace.Trace
	suite     *experiment.Suite
}

var (
	fixtures  = map[string]*fixture{}
	fixtureMu sync.Mutex
	benchSeed = int64(1)
	benchThin = 8
)

// getFixture lazily builds the campaign + suite for a platform.
func getFixture(b *testing.B, platformName string) *fixture {
	b.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[platformName]; ok {
		return f
	}
	platform, err := experiment.PlatformByName(platformName)
	if err != nil {
		b.Fatal(err)
	}
	traces, err := experiment.Run(experiment.CampaignConfig{
		Platform:  platform,
		Scenarios: experiment.ScenarioSubset(benchThin),
	})
	if err != nil {
		b.Fatal(err)
	}
	folds := stllearn.Folds(traces, 4)
	train := stllearn.TrainingSet(folds, 0)
	test := folds[0]
	faultFree, err := experiment.FaultFree(platform, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	suite, err := experiment.BuildSuite(platform, train, faultFree, experiment.SuiteConfig{
		Seed: benchSeed, MaxMLSamples: 10000, MaxLSTMWindows: 2000,
		MLPEpochs: 8, LSTMEpochs: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{
		platform: platform, traces: traces, train: train, test: test,
		faultFree: faultFree, suite: suite,
	}
	fixtures[platformName] = f
	return f
}

func BenchmarkFig3LossFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := experiment.LossCurves(-2, 4, 121)
		if len(curves.Curves) != 4 {
			b.Fatal("missing curves")
		}
	}
}

func BenchmarkFig7aHazardCoverage(b *testing.B) {
	f := getFixture(b, "glucosym")
	b.ResetTimer()
	var overall float64
	for i := 0; i < b.N; i++ {
		overall = experiment.HazardCoverageByPatient(f.traces).Overall
	}
	b.ReportMetric(100*overall, "coverage_%")
}

func BenchmarkFig7bTTH(b *testing.B) {
	f := getFixture(b, "glucosym")
	b.ResetTimer()
	var st apsmonitor.TTHStats
	for i := 0; i < b.N; i++ {
		st = experiment.TTHDistribution(f.traces)
	}
	b.ReportMetric(st.MeanMin, "mean_TTH_min")
	b.ReportMetric(100*st.NegativeFrac, "negative_TTH_%")
}

func BenchmarkFig8FaultTypes(b *testing.B) {
	f := getFixture(b, "glucosym")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := experiment.CoverageByFaultAndBG(f.traces)
		if len(m.Faults) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

// benchTableV measures the non-ML monitor comparison on one platform.
func benchTableV(b *testing.B, platformName string) {
	f := getFixture(b, platformName)
	names := []string{"Guideline", "MPC", "CAWOT", "CAWT"}
	b.ResetTimer()
	var evals []experiment.Eval
	for i := 0; i < b.N; i++ {
		var err error
		evals, err = f.suite.EvaluateAll(names, f.test)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, ev := range evals {
		if ev.Monitor == "CAWT" {
			b.ReportMetric(ev.Sample.F1(), "CAWT_F1")
			b.ReportMetric(ev.Sample.FPR(), "CAWT_FPR")
		}
		if ev.Monitor == "Guideline" {
			b.ReportMetric(ev.Sample.F1(), "Guideline_F1")
		}
	}
}

func BenchmarkTableVNonMLGlucosym(b *testing.B) { benchTableV(b, "glucosym") }
func BenchmarkTableVNonMLT1DS2013(b *testing.B) { benchTableV(b, "t1ds2013") }

func BenchmarkTableVIML(b *testing.B) {
	f := getFixture(b, "glucosym")
	names := []string{"CAWT", "DT", "MLP", "LSTM"}
	b.ResetTimer()
	var evals []experiment.Eval
	for i := 0; i < b.N; i++ {
		var err error
		evals, err = f.suite.EvaluateAll(names, f.test)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, ev := range evals {
		switch ev.Monitor {
		case "CAWT":
			b.ReportMetric(ev.Simulation.F1(), "CAWT_simF1")
		case "DT":
			b.ReportMetric(ev.Simulation.FPR(), "DT_simFPR")
		case "LSTM":
			b.ReportMetric(ev.Sample.F1(), "LSTM_F1")
		}
	}
}

func BenchmarkFig9ReactionTime(b *testing.B) {
	f := getFixture(b, "glucosym")
	m, err := f.suite.NewMonitor("CAWT", f.test[0].PatientID)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rt apsmonitor.ReactionStats
	for i := 0; i < b.N; i++ {
		for _, tr := range f.test {
			monitor.Annotate(m, tr)
		}
		rt = apsmonitor.ReactionTime(f.test)
	}
	b.ReportMetric(rt.MeanMin, "CAWT_reaction_min")
	b.ReportMetric(100*rt.EarlyRate, "CAWT_EDR_%")
}

func BenchmarkTableVIIMitigation(b *testing.B) {
	f := getFixture(b, "glucosym")
	scenarios := experiment.ScenarioSubset(benchThin * 8)
	baseline, err := experiment.Run(experiment.CampaignConfig{
		Platform: f.platform, Scenarios: scenarios,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res experiment.MitigationResult
	for i := 0; i < b.N; i++ {
		res, err = f.suite.EvaluateMitigation("CAWT", baseline, experiment.CampaignConfig{
			Scenarios: scenarios,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Outcome.RecoveryRate, "recovery_%")
	b.ReportMetric(float64(res.Outcome.NewHazards), "new_hazards")
	b.ReportMetric(res.Outcome.AverageRisk, "avg_risk")
}

func BenchmarkTableVIIIPatientSpecific(b *testing.B) {
	f := getFixture(b, "glucosym")
	b.ResetTimer()
	var rows []experiment.PatientVsPopulation
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = f.suite.TableVIII(f.test, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	var specF1, popF1 float64
	for _, r := range rows {
		specF1 += r.Specific.Sample.F1()
		popF1 += r.Pop.Sample.F1()
	}
	if n := float64(len(rows)); n > 0 {
		b.ReportMetric(specF1/n, "specific_F1")
		b.ReportMetric(popF1/n, "population_F1")
	}
}

// BenchmarkMonitorOverhead is the Section V-E6 resource-utilization
// comparison: ns/op is the per-cycle decision cost of each monitor.
func BenchmarkMonitorOverhead(b *testing.B) {
	f := getFixture(b, "glucosym")
	obs := experiment.ObservationForBench()
	for _, name := range experiment.MonitorNames {
		b.Run(name, func(b *testing.B) {
			m, err := f.suite.NewMonitor(name, "glucosym-0")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(obs)
			}
		})
	}
}

func BenchmarkAblationLossFunctions(b *testing.B) {
	f := getFixture(b, "glucosym")
	b.ResetTimer()
	var rows []experiment.LossAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.LossAblation(f.train, f.test)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Loss == "TMEE" {
			b.ReportMetric(r.Eval.Sample.F1(), "TMEE_F1")
		}
		if r.Loss == "TeLEx" {
			b.ReportMetric(r.Eval.Sample.F1(), "TeLEx_F1")
		}
	}
}

func BenchmarkAblationAdversarialTraining(b *testing.B) {
	f := getFixture(b, "glucosym")
	b.ResetTimer()
	var res experiment.AdversarialAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.AdversarialAblation(f.faultFree, f.train, f.test)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Adversarial.Sample.F1(), "adversarial_F1")
	b.ReportMetric(res.FaultFreeTrained.Sample.F1(), "faultfree_F1")
}

func BenchmarkAblationFaultFreeGeneralization(b *testing.B) {
	f := getFixture(b, "glucosym")
	names := []string{"CAWT", "DT"}
	b.ResetTimer()
	var rows []experiment.FaultFreeGeneralization
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = f.suite.EvaluateFaultFreeGeneralization(names, f.test, f.faultFree)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Monitor == "DT" {
			b.ReportMetric(r.FaultFreeFPR, "DT_cleanFPR")
		}
		if r.Monitor == "CAWT" {
			b.ReportMetric(r.FaultFreeFPR, "CAWT_cleanFPR")
		}
	}
}

// BenchmarkClosedLoopSimulation measures one full 150-cycle simulation —
// the unit of work behind every campaign number.
func BenchmarkClosedLoopSimulation(b *testing.B) {
	platform := experiment.Glucosym()
	scenario := experiment.ScenarioSubset(1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := experiment.Run(experiment.CampaignConfig{
			Platform:  platform,
			Patients:  []int{0},
			Scenarios: []apsmonitor.Scenario{scenario},
			Parallel:  1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSessionStep measures the fleet session hot path: one
// control cycle of a streaming closed-loop session (sensor read,
// controller decision, patient step, IOB bookkeeping) with pooled
// sample buffers. ns/op is the per-cycle cost behind every fleet
// throughput number.
func BenchmarkFleetSessionStep(b *testing.B) {
	platform := experiment.Glucosym()
	scenario := experiment.ScenarioSubset(1)[0]
	cfg := fleet.Config{
		Platform:      fleet.Platform(platform),
		Patients:      []int{0},
		Scenarios:     []apsmonitor.Program{scenario.Program()},
		Steps:         b.N,
		Parallel:      1,
		DiscardTraces: true,
	}
	b.ResetTimer()
	if _, err := fleet.Run(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
}

// benchPaperMLP trains the paper's 256-128 MLP architecture on a small
// synthetic feature set (the benchmark measures inference, not training
// quality).
func benchPaperMLP(b *testing.B) *ml.MLP {
	b.Helper()
	rng := rand.New(rand.NewSource(benchSeed))
	X := make([][]float64, 512)
	y := make([]int, len(X))
	for i := range X {
		row := make([]float64, monitor.FeatureDim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = rng.Intn(2)
	}
	m, err := ml.FitMLP(X, y, ml.MLPConfig{Epochs: 1, Patience: 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFleetMonitorInference100 is the batching payoff at fleet
// scale: evaluating one control cycle of 100 concurrent sessions with
// the paper's MLP monitor, per-session (100 forward passes, each
// streaming the full weight matrices) versus batched (one tiled
// inference call per shard). The batched path is the fleet engine's
// NewBatchMonitor mode; verdicts are bit-identical.
func BenchmarkFleetMonitorInference100(b *testing.B) {
	const sessions = 100
	mlp := benchPaperMLP(b)
	obs := make([]monitor.Observation, sessions)
	rng := rand.New(rand.NewSource(2))
	for k := range obs {
		obs[k] = monitor.Observation{
			CGM: 60 + 250*rng.Float64(), BGPrime: rng.NormFloat64(),
			IOB: 5 * rng.Float64(), IOBPrime: rng.NormFloat64() * 0.1,
			Rate: 4 * rng.Float64(), Action: trace.ActionKeep,
		}
	}

	b.Run("per-session", func(b *testing.B) {
		mons := make([]monitor.Monitor, sessions)
		for k := range mons {
			m, err := monitor.NewMLMonitor("MLP", mlp.NewBatch())
			if err != nil {
				b.Fatal(err)
			}
			mons[k] = m
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, m := range mons {
				m.Step(obs[k])
			}
		}
		b.ReportMetric(float64(b.N)*sessions/b.Elapsed().Seconds(), "inferences/s")
	})
	b.Run("batched", func(b *testing.B) {
		bm, err := monitor.NewBatchML("MLP", mlp.NewBatch())
		if err != nil {
			b.Fatal(err)
		}
		bm.ResetLanes(sessions)
		lanes := make([]int, sessions)
		for k := range lanes {
			lanes[k] = k
		}
		out := make([]monitor.Verdict, sessions)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bm.StepBatch(lanes, obs, out)
		}
		b.ReportMetric(float64(b.N)*sessions/b.Elapsed().Seconds(), "inferences/s")
	})
}

// BenchmarkFleetEngine100Sessions measures end-to-end engine throughput
// (steps/s) for a 100-session fleet with the MLP monitor attached,
// batched per shard.
func BenchmarkFleetEngine100Sessions(b *testing.B) {
	mlp := benchPaperMLP(b)
	platform := experiment.Glucosym()
	base := fleet.Config{
		Platform:      fleet.Platform(platform),
		Patients:      []int{0, 1, 2, 3},
		Scenarios:     apsmonitor.Programs(experiment.ScenarioSubset(36)), // 25 scenarios
		Sessions:      100,
		Steps:         50,
		DiscardTraces: true,
	}
	run := func(b *testing.B, cfg fleet.Config) {
		var steps int64
		for i := 0; i < b.N; i++ {
			res, err := fleet.Run(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("batched", func(b *testing.B) {
		cfg := base
		cfg.NewBatchMonitor = func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchML("MLP", mlp.NewBatch())
		}
		run(b, cfg)
	})
}

// nullSink counts events and discards them — the cheapest possible
// consumer, isolating delivery cost from serialization cost.
type nullSink struct{ n int64 }

func (s *nullSink) Emit(fleet.Event) error { s.n++; return nil }
func (s *nullSink) Flush() error           { return nil }

// BenchmarkFleetTelemetry measures the marginal cost of streaming STL
// hazard telemetry on a 100-session fleet: stl-telemetry (the
// shard-batched scs.BatchStreamSet) against the no-telemetry baseline,
// both delivering their event streams into a null sink. The steps/s
// gap between the two is the telemetry tax the ROADMAP tracks.
func BenchmarkFleetTelemetry(b *testing.B) {
	platform := experiment.Glucosym()
	base := fleet.Config{
		Platform:      fleet.Platform(platform),
		Patients:      []int{0, 1, 2, 3},
		Scenarios:     apsmonitor.Programs(experiment.ScenarioSubset(36)),
		Sessions:      100,
		Steps:         50,
		DiscardTraces: true,
	}
	run := func(b *testing.B, cfg fleet.Config) {
		var steps int64
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Sinks = []fleet.Sink{&nullSink{}}
			res, err := fleet.Run(context.Background(), c)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("baseline", func(b *testing.B) { run(b, base) })
	b.Run("stl-telemetry", func(b *testing.B) {
		cfg := base
		cfg.Telemetry = &fleet.TelemetryConfig{}
		run(b, cfg)
	})
}

// BenchmarkShardedSinkEpochMerge prices the epoch barrier on a
// telemetry-heavy 100-session fleet, both legs into the same null sink:
//
//   - run-end: a sink epoch longer than the run — per-worker buffers,
//     one canonical merge at completion (O(run) memory);
//   - epoch-16: SinkEpoch=16 — the same canonical stream delivered
//     incrementally at epoch barriers with O(epoch) memory.
//
// The steps/s gap between the two is the cost of the barrier quiesce.
// BENCH_sinks.json tracks the trajectory.
func BenchmarkShardedSinkEpochMerge(b *testing.B) {
	platform := experiment.Glucosym()
	base := fleet.Config{
		Platform:      fleet.Platform(platform),
		Patients:      []int{0, 1, 2, 3},
		Scenarios:     apsmonitor.Programs(experiment.ScenarioSubset(36)),
		Sessions:      100,
		Steps:         50,
		DiscardTraces: true,
		Telemetry:     &fleet.TelemetryConfig{},
	}
	run := func(b *testing.B, sinkEpoch int) {
		var steps int64
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Sinks = []fleet.Sink{&nullSink{}}
			cfg.SinkEpoch = sinkEpoch
			res, err := fleet.Run(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
	}
	b.Run("run-end", func(b *testing.B) { run(b, base.Steps+1) })
	b.Run("epoch-16", func(b *testing.B) { run(b, 16) })
}

// BenchmarkSCSBatchPush is the kernel-level view of telemetry batching:
// one control cycle of Table I rule evaluation for 128 sessions, as 128
// one-lane BatchStreamSet pushes (the per-session form) versus one
// 128-lane push. verdicts/s is the shard's rule-evaluation throughput;
// the two paths are bit-identical (TestBatchStreamSetMatchesPerSession).
func BenchmarkSCSBatchPush(b *testing.B) {
	const lanes = 128
	rules := apsmonitor.TableI()
	rng := rand.New(rand.NewSource(11))
	states := make([]scs.State, lanes)
	for k := range states {
		states[k] = scs.State{
			BG:       40 + 300*rng.Float64(),
			BGPrime:  -6 + 12*rng.Float64(),
			IOB:      -2 + 10*rng.Float64(),
			IOBPrime: -0.05 + 0.1*rng.Float64(),
			Action:   trace.Action(1 + rng.Intn(4)),
		}
	}
	b.Run("per-session", func(b *testing.B) {
		sets := make([]*scs.BatchStreamSet, lanes)
		for k := range sets {
			ss, err := scs.NewBatchStreamSet(rules, nil, scs.Params{}, 5, 1)
			if err != nil {
				b.Fatal(err)
			}
			sets[k] = ss
		}
		lane0 := []int{0}
		out := make([]scs.StreamVerdict, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, ss := range sets {
				if err := ss.PushLanes(lane0, states[k:k+1], out); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*lanes/b.Elapsed().Seconds(), "verdicts/s")
	})
	b.Run("batched", func(b *testing.B) {
		bs, err := scs.NewBatchStreamSet(rules, nil, scs.Params{}, 5, lanes)
		if err != nil {
			b.Fatal(err)
		}
		laneIDs := make([]int, lanes)
		for k := range laneIDs {
			laneIDs[k] = k
		}
		out := make([]scs.StreamVerdict, lanes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bs.PushLanes(laneIDs, states, out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*lanes/b.Elapsed().Seconds(), "verdicts/s")
	})
}

// BenchmarkThresholdLearning measures one full L-BFGS-B threshold fit
// over the training fold (the Section III-C2 refinement step).
func BenchmarkThresholdLearning(b *testing.B) {
	f := getFixture(b, "glucosym")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := stllearn.Learn(apsmonitor.TableI(), f.train, stllearn.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchPatientStep is the kernel-level view of physiology
// batching: one 5-minute control cycle of ODE integration for 128
// sessions, as 128 scalar Patient.Step calls versus one
// BatchPatient.StepLanes sweep, on both cohort models. lane-steps/s is
// the shard's physiology throughput; the two paths are bit-identical
// per lane (TestBatchMatchesScalarDifferential).
func BenchmarkBatchPatientStep(b *testing.B) {
	const lanes = 128
	backends := []struct {
		name   string
		cohort int
		scalar func(idx int) (closedloop.Patient, error)
		batch  func(lanes int) (sim.BatchPatient, error)
	}{
		{"glucosym", glucosym.NumPatients,
			func(idx int) (closedloop.Patient, error) { return glucosym.New(idx) },
			func(lanes int) (sim.BatchPatient, error) { return glucosym.NewBatch(lanes) }},
		{"uvapadova", uvapadova.NumPatients,
			func(idx int) (closedloop.Patient, error) { return uvapadova.New(idx) },
			func(lanes int) (sim.BatchPatient, error) { return uvapadova.NewBatch(lanes) }},
	}
	rng := rand.New(rand.NewSource(23))
	ins := make([]float64, lanes)
	for k := range ins {
		ins[k] = rng.Float64() * 4
	}
	for _, be := range backends {
		b.Run(be.name+"/per-session", func(b *testing.B) {
			pts := make([]closedloop.Patient, lanes)
			for k := range pts {
				p, err := be.scalar(k % be.cohort)
				if err != nil {
					b.Fatal(err)
				}
				pts[k] = p
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, p := range pts {
					p.Step(ins[k], 0, 5)
				}
			}
			b.ReportMetric(float64(b.N)*lanes/b.Elapsed().Seconds(), "lane-steps/s")
		})
		b.Run(be.name+"/batched", func(b *testing.B) {
			bp, err := be.batch(lanes)
			if err != nil {
				b.Fatal(err)
			}
			laneIDs := make([]int, lanes)
			for k := range laneIDs {
				laneIDs[k] = k
				if err := bp.ConfigureLane(k, k%be.cohort); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bp.StepLanes(laneIDs, ins, nil, 5)
			}
			b.ReportMetric(float64(b.N)*lanes/b.Elapsed().Seconds(), "lane-steps/s")
		})
	}
}
