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
	// workers, divided by the replayed steps: the amortized per-step
	// cost of batched evaluation. The per-session Section V-E6
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
// Every monitor replays as batched lanes (Suite.NewBatchMonitor): the
// traces split into GOMAXPROCS contiguous chunks, each stepped by its
// own batch monitor on its own goroutine (monitor.ReplayBatch). CAWT and
// MPC, whose parameters are the patient's, build one batch monitor per
// run of one patient's traces within a chunk. The verdicts are the
// per-session monitor's, bit for bit, and the metrics, attribution and
// annotation run afterwards on the calling goroutine in trace order.
func (s *Suite) EvaluateMonitor(name string, traces []*trace.Trace) (Eval, error) {
	return s.evaluateMonitor(name, traces, runtime.GOMAXPROCS(0))
}

// evaluateMonitor is EvaluateMonitor with an explicit replay worker
// count.
func (s *Suite) evaluateMonitor(name string, traces []*trace.Trace, workers int) (Eval, error) {
	return evaluate(name, traces, workers, patientSpecific(name), func(patientID string) (monitor.BatchMonitor, error) {
		return s.NewBatchMonitor(name, patientID)
	})
}

// evaluate scores the monitors newBatch builds, replayed over traces by
// replay, as EvaluateMonitor describes.
func evaluate(name string, traces []*trace.Trace, workers int, perPatient bool, newBatch func(patientID string) (monitor.BatchMonitor, error)) (Eval, error) {
	verdicts, busy, err := replay(name, traces, workers, perPatient, newBatch)
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
// the replay busy time summed over workers. The traces split into at
// most workers contiguous chunks, each replayed by monitor.ReplayBatch
// on its own goroutine. A chunk builds one batch monitor, or — when
// perPatient — one for each run of consecutive traces of one patient.
func replay(name string, traces []*trace.Trace, workers int, perPatient bool, newBatch func(patientID string) (monitor.BatchMonitor, error)) ([][]monitor.Verdict, time.Duration, error) {
	verdicts := make([][]monitor.Verdict, len(traces))
	chunks := max(1, min(workers, len(traces)))
	busy := make([]time.Duration, chunks)
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for w := range chunks {
		lo, hi := w*len(traces)/chunks, (w+1)*len(traces)/chunks
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b monitor.BatchMonitor
			for lo < hi {
				end := lo + 1
				for end < hi && (!perPatient || traces[end].PatientID == traces[lo].PatientID) {
					end++
				}
				if b == nil || perPatient {
					var err error
					if b, err = newBatch(traces[lo].PatientID); err != nil {
						errs[w] = fmt.Errorf("experiment: %s for %s: %w", name, traces[lo].PatientID, err)
						return
					}
				}
				start := time.Now()
				copy(verdicts[lo:end], monitor.ReplayBatch(b, traces[lo:end]))
				busy[w] += time.Since(start)
				lo = end
			}
		}()
	}
	wg.Wait()
	var total time.Duration
	for _, d := range busy {
		total += d
	}
	return verdicts, total, errors.Join(errs...)
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
// (no-monitor) traces of the same scenarios. Each patient runs as a
// campaign of its own with that patient's monitor, and the traces join
// in patient order, as one campaign orders them. Trace i of the
// baseline must be the same patient, fault and initial BG as trace i of
// the rerun.
func (s *Suite) EvaluateMitigation(name string, baseline []*trace.Trace, cfg CampaignConfig) (MitigationResult, error) {
	mitigated, err := s.mitigationRuns(name, cfg)
	if err != nil {
		return MitigationResult{}, err
	}
	if len(mitigated) != len(baseline) {
		return MitigationResult{}, fmt.Errorf("experiment: mitigated %d traces vs baseline %d — configs must match",
			len(mitigated), len(baseline))
	}
	for i, m := range mitigated {
		if b := baseline[i]; b.PatientID != m.PatientID || b.Fault != m.Fault || b.InitialBG != m.InitialBG {
			return MitigationResult{}, fmt.Errorf("experiment: trace %d: baseline %s %s from %v mg/dL vs mitigated %s %s from %v mg/dL — configs must match",
				i, b.PatientID, b.Fault.Name, b.InitialBG, m.PatientID, m.Fault.Name, m.InitialBG)
		}
	}
	return MitigationResult{
		Monitor: name,
		Outcome: metrics.Mitigation(baseline, mitigated),
	}, nil
}

// mitigationRuns runs EvaluateMitigation's campaigns and returns their
// traces in patient order.
func (s *Suite) mitigationRuns(name string, cfg CampaignConfig) ([]*trace.Trace, error) {
	cfg.Platform = s.Platform
	cfg.Mitigate = true
	// The per-patient campaigns below each see one patient, so the
	// campaign as a whole (a patient listed twice) is checked here.
	if err := cfg.FleetConfig().Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	patients := cfg.Patients
	if len(patients) == 0 {
		patients = make([]int, s.Platform.NumPatients)
		for i := range patients {
			patients[i] = i
		}
	}
	var out []*trace.Trace
	for _, idx := range patients {
		p, err := s.Platform.NewPatient(idx)
		if err != nil {
			return nil, fmt.Errorf("experiment: patient %d: %w", idx, err)
		}
		run := cfg
		run.Patients = []int{idx}
		run.NewBatchMonitor = func() (monitor.BatchMonitor, error) { return s.NewBatchMonitor(name, p.ID()) }
		traces, err := Run(run)
		if err != nil {
			return nil, err
		}
		out = append(out, traces...)
	}
	return out, nil
}
