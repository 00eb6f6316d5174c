package experiment

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ml"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// SuiteConfig tunes monitor construction and training.
type SuiteConfig struct {
	Seed int64
	// Loss selects the STL threshold-learning loss (default TMEE).
	Loss stllearn.Loss
	// MaxMLSamples subsamples point-in-time ML training data; 0 selects
	// 20000. The paper trains on the full 1.3M-sample campaign with
	// TensorFlow; the pure-Go reimplementation trains on a deterministic
	// subsample to keep the suite runnable in minutes (DESIGN.md).
	MaxMLSamples int
	// MaxLSTMWindows subsamples LSTM windows; 0 selects 4000.
	MaxLSTMWindows int
	// MLPEpochs / LSTMEpochs bound training (defaults 15 / 8).
	MLPEpochs  int
	LSTMEpochs int
	// MLPHidden / LSTMUnits override the architectures. Defaults are
	// scaled-down versions of the paper's (256-128 and 128-64) sized for
	// the subsampled training sets; pass the paper's sizes for a full
	// run.
	MLPHidden []int
	LSTMUnits []int
	// LSTMWindow is the sliding window length (default 6 = 30 minutes).
	LSTMWindow int
	// MultiClass trains 3-class (none/H1/H2) ML monitors instead of
	// binary ones (the Section VI-1 ablation).
	MultiClass bool
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if c.Loss == nil {
		c.Loss = stllearn.TMEE{}
	}
	if c.MaxMLSamples == 0 {
		c.MaxMLSamples = 20000
	}
	if c.MaxLSTMWindows == 0 {
		c.MaxLSTMWindows = 4000
	}
	if c.MLPEpochs == 0 {
		c.MLPEpochs = 15
	}
	if c.LSTMEpochs == 0 {
		c.LSTMEpochs = 8
	}
	if len(c.MLPHidden) == 0 {
		c.MLPHidden = []int{64, 32}
	}
	if len(c.LSTMUnits) == 0 {
		c.LSTMUnits = []int{32, 16}
	}
	if c.LSTMWindow == 0 {
		c.LSTMWindow = 6
	}
	return c
}

// Suite holds every trained monitor for one platform, ready to be
// instantiated per patient.
type Suite struct {
	Platform Platform
	Config   SuiteConfig

	// CAWT per-patient thresholds and the population-level table.
	PatientThresholds map[string]scs.Thresholds
	PopThresholds     scs.Thresholds
	LearnReport       stllearn.Report

	// Guideline percentiles (per platform, from fault-free data).
	Lambda10, Lambda90 float64

	// Trained ML models (shared across patients, as in the paper).
	DT   *ml.Tree
	MLP  *ml.MLP
	LSTM *ml.LSTM

	basals map[string]float64 // patient ID -> basal (for MPC)
}

// BuildSuite trains every monitor from labeled training traces plus the
// platform's fault-free runs.
func BuildSuite(platform Platform, training, faultFree []*trace.Trace, cfg SuiteConfig) (*Suite, error) {
	cfg = cfg.withDefaults()
	s := &Suite{Platform: platform, Config: cfg, basals: make(map[string]float64)}

	// Patient basal rates (for the MPC monitor's steady-state init).
	for i := 0; i < platform.NumPatients; i++ {
		p, err := platform.NewPatient(i)
		if err != nil {
			return nil, err
		}
		s.basals[p.ID()] = p.Basal()
	}

	// CAWT thresholds: patient-specific and population-level.
	learnCfg := stllearn.Config{Loss: cfg.Loss}
	per, err := stllearn.LearnPerPatient(scs.TableI(), training, learnCfg)
	if err != nil {
		return nil, err
	}
	// Patients absent from the training set fall back to population.
	pop, report, err := stllearn.Learn(scs.TableI(), training, learnCfg)
	if err != nil {
		return nil, err
	}
	s.PatientThresholds = per
	s.PopThresholds = pop
	s.LearnReport = report

	// Guideline percentiles from fault-free behavior. The no-meal
	// steady-state traces concentrate near the control target, which
	// would make raw percentiles absurdly tight; clamp them to the
	// clinically sensible band the Table III rules assume (a patient's
	// daily BG distribution spans well beyond closed-loop steady state).
	l10, l90, err := monitor.PercentilesFromTraces(faultFree)
	if err != nil {
		return nil, err
	}
	if l10 > 90 {
		l10 = 90
	}
	if l10 < 75 {
		l10 = 75
	}
	if l90 < 160 {
		l90 = 160
	}
	if l90 > 185 {
		l90 = 185
	}
	s.Lambda10, s.Lambda90 = l10, l90

	// ML monitors.
	rng := rand.New(rand.NewSource(cfg.Seed))
	X, y := monitor.TrainingData(training, cfg.MultiClass)
	X, y = subsample(X, y, cfg.MaxMLSamples, rng)
	classes := 2
	if cfg.MultiClass {
		classes = 3
	}
	if s.DT, err = ml.FitTree(X, y, ml.TreeConfig{Classes: classes}); err != nil {
		return nil, fmt.Errorf("experiment: DT training: %w", err)
	}
	if s.MLP, err = ml.FitMLP(X, y, ml.MLPConfig{
		Hidden: cfg.MLPHidden, Classes: classes, Epochs: cfg.MLPEpochs,
	}, rng); err != nil {
		return nil, fmt.Errorf("experiment: MLP training: %w", err)
	}
	XSeq, ySeq := monitor.SequenceTrainingData(training, cfg.LSTMWindow, cfg.MultiClass)
	XSeq, ySeq = subsampleSeq(XSeq, ySeq, cfg.MaxLSTMWindows, rng)
	if s.LSTM, err = ml.FitLSTM(XSeq, ySeq, ml.LSTMConfig{
		Units: cfg.LSTMUnits, Classes: classes, Window: cfg.LSTMWindow,
		Epochs: cfg.LSTMEpochs,
	}, rng); err != nil {
		return nil, fmt.Errorf("experiment: LSTM training: %w", err)
	}
	return s, nil
}

// MonitorNames lists the suite's monitors in the paper's order.
var MonitorNames = []string{"Guideline", "MPC", "CAWOT", "CAWT", "DT", "MLP", "LSTM"}

// NewMonitor instantiates a fresh monitor for a patient. CAWT uses the
// patient-specific thresholds (population fallback); CAWT-pop forces the
// population table (Table VIII comparison).
func (s *Suite) NewMonitor(name, patientID string) (monitor.Monitor, error) {
	switch name {
	case "CAWT":
		th, ok := s.PatientThresholds[patientID]
		if !ok {
			th = s.PopThresholds
		}
		return monitor.NewCAWT(scs.TableI(), th, scs.Params{})
	case "CAWT-pop":
		return monitor.NewCAWT(scs.TableI(), s.PopThresholds, scs.Params{})
	case "CAWOT":
		return monitor.NewCAWOT(scs.TableI(), scs.Params{})
	case "Guideline":
		return monitor.NewGuideline(monitor.GuidelineConfig{
			Lambda10: s.Lambda10, Lambda90: s.Lambda90,
		})
	case "MPC":
		basal, ok := s.basals[patientID]
		if !ok || basal <= 0 {
			basal = 1.3
		}
		return monitor.NewMPC(monitor.MPCConfig{Basal: basal})
	case "DT":
		return monitor.NewMLMonitor("DT", s.DT)
	case "MLP":
		return monitor.NewMLMonitor("MLP", s.MLP)
	case "LSTM":
		return monitor.NewSequenceMonitor("LSTM", s.LSTM, s.Config.LSTMWindow)
	default:
		return nil, fmt.Errorf("experiment: unknown monitor %q", name)
	}
}

// NewBatchMonitor instantiates a batched-inference monitor for the ML
// baselines (DT, MLP, LSTM): one per fleet shard, sharing this suite's
// trained weights. Verdicts are bit-identical to the per-session
// monitors of NewMonitor.
func (s *Suite) NewBatchMonitor(name string) (monitor.BatchMonitor, error) {
	switch name {
	case "DT":
		return monitor.NewBatchML("DT", s.DT)
	case "MLP":
		return monitor.NewBatchML("MLP", s.MLP.NewBatch())
	case "LSTM":
		return monitor.NewBatchSequence("LSTM", s.LSTM.NewBatch(), s.Config.LSTMWindow)
	default:
		return nil, fmt.Errorf("%w %q", errNoBatch, name)
	}
}

// errNoBatch is NewBatchMonitor's error for a monitor that has no
// batched variant.
var errNoBatch = errors.New("experiment: no batched variant of monitor")

func subsample(X [][]float64, y []int, limit int, rng *rand.Rand) ([][]float64, []int) {
	if len(X) <= limit {
		return X, y
	}
	idx := rng.Perm(len(X))[:limit]
	outX := make([][]float64, limit)
	outY := make([]int, limit)
	for i, j := range idx {
		outX[i] = X[j]
		outY[i] = y[j]
	}
	return outX, outY
}

func subsampleSeq(X [][][]float64, y []int, limit int, rng *rand.Rand) ([][][]float64, []int) {
	if len(X) <= limit {
		return X, y
	}
	idx := rng.Perm(len(X))[:limit]
	outX := make([][][]float64, limit)
	outY := make([]int, limit)
	for i, j := range idx {
		outX[i] = X[j]
		outY[i] = y[j]
	}
	return outX, outY
}
