package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// Eval is one monitor's evaluation over a trace set.
type Eval struct {
	Monitor    string
	Sample     metrics.Confusion
	Simulation metrics.Confusion
	Reaction   metrics.ReactionStats
	// StepTime is the monitor's replay busy time summed over replay
	// workers, divided by the replayed steps. For DT, MLP and LSTM,
	// which replay as batched lanes, that is the amortized per-step
	// cost of batched inference; for the other monitors it is the mean
	// cost of one per-session step. The per-session Section V-E6
	// comparison is BenchmarkMonitorOverhead.
	StepTime time.Duration

	// The richer verdict view, populated for margin-carrying monitors
	// (zero MarginSamples otherwise): per-rule alarm attribution and the
	// margin distribution, read from the same replayed verdicts as the
	// confusion matrices — no extra evaluation pass.
	//
	// RuleAttribution counts alarmed cycles by the verdict's arg-min
	// rule ID; MeanAlarmMargin averages the (negative) violation depth
	// over alarmed cycles; MeanSafeMargin averages the distance to the
	// nearest rule boundary over silent cycles.
	RuleAttribution map[int]int
	MeanAlarmMargin float64
	MeanSafeMargin  float64
	MarginSamples   int
}

// EvaluateMonitor replays a monitor over every trace, annotates alarms
// in place, and aggregates the paper's accuracy and timeliness metrics
// plus the rule/margin attribution the richer verdicts carry.
//
// Monitors with a batched variant (Suite.NewBatchMonitor: DT, MLP,
// LSTM) replay as lanes: the traces split into GOMAXPROCS contiguous
// chunks, each stepped by its own batch monitor on its own goroutine
// (monitor.ReplayBatch). The others replay one trace at a time through
// a per-patient monitor (monitor.Replay). Either way the verdicts are
// the per-session monitor's, bit for bit, and the metrics, attribution
// and annotation run afterwards on the calling goroutine in trace
// order.
func (s *Suite) EvaluateMonitor(name string, traces []*trace.Trace) (Eval, error) {
	return s.evaluateMonitor(name, traces, runtime.GOMAXPROCS(0))
}

// evaluateMonitor is EvaluateMonitor with an explicit batched-replay
// worker count.
func (s *Suite) evaluateMonitor(name string, traces []*trace.Trace, workers int) (Eval, error) {
	verdicts, busy, err := s.replay(name, traces, workers)
	if err != nil {
		return Eval{}, err
	}
	ev := Eval{Monitor: name, RuleAttribution: make(map[int]int)}
	var steps int
	var alarmMarginSum, safeMarginSum float64
	var alarmMargins, safeMargins int
	for k, tr := range traces {
		steps += tr.Len()
		for i := range tr.Samples {
			v := &verdicts[k][i]
			tr.Samples[i].Alarm = v.Alarm
			tr.Samples[i].AlarmHazard = v.Hazard
			if v.Rule == 0 {
				continue // monitor carries no rule attribution
			}
			if v.Alarm {
				ev.RuleAttribution[v.Rule]++
				alarmMarginSum += v.Margin
				alarmMargins++
			} else {
				safeMarginSum += v.Margin
				safeMargins++
			}
		}

		ev.Sample.Add(metrics.SampleLevel(tr, 0))
		ev.Simulation.Add(metrics.SimulationLevel(tr))
	}
	ev.Reaction = metrics.ReactionTime(traces)
	if steps > 0 {
		ev.StepTime = busy / time.Duration(steps)
	}
	ev.MarginSamples = alarmMargins + safeMargins
	if alarmMargins > 0 {
		ev.MeanAlarmMargin = alarmMarginSum / float64(alarmMargins)
	}
	if safeMargins > 0 {
		ev.MeanSafeMargin = safeMarginSum / float64(safeMargins)
	}
	return ev, nil
}

// replay returns every trace's replayed verdicts, in trace order, and
// the replay busy time summed over workers.
func (s *Suite) replay(name string, traces []*trace.Trace, workers int) ([][]monitor.Verdict, time.Duration, error) {
	verdicts := make([][]monitor.Verdict, len(traces))
	if _, err := s.NewBatchMonitor(name); err == nil {
		busy, err := s.replayBatched(name, traces, verdicts, workers)
		return verdicts, busy, err
	} else if !errors.Is(err, errNoBatch) {
		return nil, 0, fmt.Errorf("experiment: batched %s: %w", name, err)
	}
	monitors := make(map[string]monitor.Monitor)
	var busy time.Duration
	for k, tr := range traces {
		m, ok := monitors[tr.PatientID]
		if !ok {
			var err error
			m, err = s.NewMonitor(name, tr.PatientID)
			if err != nil {
				return nil, 0, fmt.Errorf("experiment: %s for %s: %w", name, tr.PatientID, err)
			}
			monitors[tr.PatientID] = m
		}
		start := time.Now()
		verdicts[k] = monitor.Replay(m, tr)
		busy += time.Since(start)
	}
	return verdicts, busy, nil
}

// replayBatched fills verdicts by splitting traces into at most workers
// contiguous chunks, each replayed by its own batch monitor on its own
// goroutine. It returns the workers' busy times summed.
func (s *Suite) replayBatched(name string, traces []*trace.Trace, verdicts [][]monitor.Verdict, workers int) (time.Duration, error) {
	monitors := make([]monitor.BatchMonitor, max(1, min(workers, len(traces))))
	for w := range monitors {
		var err error
		if monitors[w], err = s.NewBatchMonitor(name); err != nil {
			return 0, err
		}
	}
	busy := make([]time.Duration, len(monitors))
	var wg sync.WaitGroup
	for w, b := range monitors {
		lo, hi := w*len(traces)/len(monitors), (w+1)*len(traces)/len(monitors)
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			copy(verdicts[lo:hi], monitor.ReplayBatch(b, traces[lo:hi]))
			busy[w] = time.Since(start)
		}()
	}
	wg.Wait()
	var total time.Duration
	for _, d := range busy {
		total += d
	}
	return total, nil
}

// EvaluateAll runs every named monitor over the trace set.
func (s *Suite) EvaluateAll(names []string, traces []*trace.Trace) ([]Eval, error) {
	if len(names) == 0 {
		names = MonitorNames
	}
	out := make([]Eval, 0, len(names))
	for _, name := range names {
		ev, err := s.EvaluateMonitor(name, traces)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// MitigationResult is one monitor's Table VII row.
type MitigationResult struct {
	Monitor string
	Outcome metrics.MitigationOutcome
}

// EvaluateMitigation reruns the campaign scenarios with the monitor in
// the loop and Algorithm 1 enabled, comparing against the baseline
// (no-monitor) traces of the same scenarios.
func (s *Suite) EvaluateMitigation(name string, baseline []*trace.Trace, cfg CampaignConfig) (MitigationResult, error) {
	cfg.Platform = s.Platform
	cfg.Mitigate = true
	cfg.NewMonitor = func(patientIdx int) (monitor.Monitor, error) {
		p, err := s.Platform.NewPatient(patientIdx)
		if err != nil {
			return nil, err
		}
		return s.NewMonitor(name, p.ID())
	}
	mitigated, err := Run(cfg)
	if err != nil {
		return MitigationResult{}, err
	}
	if len(mitigated) != len(baseline) {
		return MitigationResult{}, fmt.Errorf("experiment: mitigated %d traces vs baseline %d — configs must match",
			len(mitigated), len(baseline))
	}
	return MitigationResult{
		Monitor: name,
		Outcome: metrics.Mitigation(baseline, mitigated),
	}, nil
}
