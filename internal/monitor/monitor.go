package monitor

import (
	"log"

	"repro/internal/closedloop"
	"repro/internal/trace"
)

// Monitor re-exports the closed-loop monitor contract for implementers.
type Monitor = closedloop.Monitor

// Observation is the per-cycle monitor input.
type Observation = closedloop.Observation

// Verdict is the per-cycle monitor output.
type Verdict = closedloop.Verdict

// BasalSensitive is implemented by monitors whose verdicts depend on the
// loop's scheduled basal — Observation.Basal, or the step-0 PrevRate
// that Replay seeds from it. Replay warns loudly when such a monitor
// replays a trace recorded before the basal was persisted (Basal == 0):
// the observations it feeds then differ from what the live loop fed, and
// the replayed verdicts are not trustworthy.
type BasalSensitive interface {
	UsesBasal() bool
}

// replayWarnf is the warning hook for Replay diagnostics; tests override
// it to assert the warning fires.
var replayWarnf = log.Printf

// Replay drives a monitor over a recorded trace offline, returning the
// per-sample alarms. It mirrors exactly what the closed loop feeds the
// monitor online — including the step-0 PrevRate, which the live
// Stepper seeds from the patient's scheduled basal (not the first
// commanded rate), and Observation.Basal — so offline evaluation
// (Tables V and VI) agrees with online behavior. Traces recorded before
// the basal was persisted replay with Basal == 0; re-record them for
// basal-sensitive monitors (Replay warns when one replays such a trace).
func Replay(m Monitor, tr *trace.Trace) []Verdict {
	if tr.Basal == 0 {
		if bs, ok := m.(BasalSensitive); ok && bs.UsesBasal() {
			replayWarnf("monitor: WARNING: replaying a Basal==0 trace (patient %q, platform %q) "+
				"through basal-sensitive monitor %q — the trace predates basal persistence; "+
				"re-record it (trace.WriteCSV now stores the scheduled basal) or expect "+
				"verdicts to diverge from the live loop", tr.PatientID, tr.Platform, m.Name())
		}
	}
	m.Reset()
	out := make([]Verdict, tr.Len())
	for i := range tr.Samples {
		out[i] = m.Step(observation(tr, i))
	}
	return out
}

// ReplayBatch is Replay for a trace set on a batched monitor: trace k
// is lane k, and cycle i of every trace still running is one StepBatch
// call, so lanes drop out as shorter traces end. out[k][i] equals
// Replay(m, traces[k])[i] for the per-session monitor m that b batches,
// because both build each observation with the same helper and
// StepBatch is bit-identical to Step per lane. It resets all of b's
// lanes first; b must not be shared with a concurrent caller.
func ReplayBatch(b BatchMonitor, traces []*trace.Trace) [][]Verdict {
	out := make([][]Verdict, len(traces))
	total, steps := 0, 0
	for _, tr := range traces {
		total += tr.Len()
		steps = max(steps, tr.Len())
	}
	flat := make([]Verdict, total)
	for k, tr := range traces {
		out[k], flat = flat[:tr.Len():tr.Len()], flat[tr.Len():]
	}
	b.ResetLanes(len(traces))
	lanes := make([]int, 0, len(traces))
	obs := make([]Observation, 0, len(traces))
	verdicts := make([]Verdict, len(traces))
	for i := 0; i < steps; i++ {
		lanes, obs = lanes[:0], obs[:0]
		for k, tr := range traces {
			if i < tr.Len() {
				lanes = append(lanes, k)
				obs = append(obs, observation(tr, i))
			}
		}
		b.StepBatch(lanes, obs, verdicts[:len(lanes)])
		for j, k := range lanes {
			out[k][i] = verdicts[j]
		}
	}
	return out
}

// observation is the monitor input of recorded cycle i, exactly as the
// closed loop built it online: PrevRate is the previous cycle's
// delivered rate, seeded at step 0 from the scheduled basal like the
// live Stepper. Replay and ReplayBatch share it, so the offline/online
// contract has one definition.
func observation(tr *trace.Trace, i int) Observation {
	prevRate := tr.Basal
	if i > 0 {
		prevRate = tr.Samples[i-1].Delivered
	}
	s := &tr.Samples[i]
	return Observation{
		Step: s.Step, TimeMin: s.TimeMin, CycleMin: tr.CycleMin,
		CGM: s.CGM, BGPrime: s.BGPrime, IOB: s.IOB, IOBPrime: s.IOBPrime,
		Rate: s.Rate, PrevRate: prevRate, Action: s.Action,
		Basal: tr.Basal,
	}
}

// Annotate writes a monitor's replayed verdicts into the trace samples.
func Annotate(m Monitor, tr *trace.Trace) {
	verdicts := Replay(m, tr)
	for i := range tr.Samples {
		tr.Samples[i].Alarm = verdicts[i].Alarm
		tr.Samples[i].AlarmHazard = verdicts[i].Hazard
	}
}
