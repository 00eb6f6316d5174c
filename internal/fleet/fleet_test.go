package fleet

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/closedloop"
	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/sim/glucosym"
	"repro/internal/sim/uvapadova"
	"repro/internal/stl"
	"repro/internal/trace"
)

// glucosymPlatform mirrors experiment.Glucosym without importing
// experiment (which imports fleet).
func glucosymPlatform() Platform {
	return Platform{
		Name:        "glucosym",
		NumPatients: glucosym.NumPatients,
		NewPatient: func(idx int) (closedloop.Patient, error) {
			return glucosym.New(idx)
		},
		NewBatchPatient: func(lanes int) (sim.BatchPatient, error) {
			return glucosym.NewBatch(lanes)
		},
		NewController: func(basal float64) (control.Controller, error) {
			return control.NewOpenAPS(control.OpenAPSConfig{Basal: basal, ISF: 50})
		},
	}
}

// thinScenarios picks every k-th scenario of the full campaign, in
// program form (the fleet's native scenario type).
func thinScenarios(k int) []fault.Program {
	all := fault.CampaignPrograms(nil)
	out := make([]fault.Program, 0, len(all)/k+1)
	for i := 0; i < len(all); i += k {
		out = append(out, all[i])
	}
	return out
}

// tracesCSV serializes traces to one byte stream for golden comparison.
func tracesCSV(t *testing.T, traces []*trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range traces {
		if tr == nil {
			t.Fatal("nil trace in result")
		}
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// funcSink hands every delivered event to a callback. The engine calls
// it serially, and Run returns only after the last delivery, so state
// the callback builds is safe to read once Run has returned.
type funcSink func(Event)

func (f funcSink) Emit(ev Event) error { f(ev); return nil }
func (f funcSink) Flush() error        { return nil }

// runEvents runs cfg to completion with a recording sink attached next
// to any configured sinks and returns the delivered stream.
func runEvents(t *testing.T, cfg Config) ([]Event, Result) {
	t.Helper()
	var events []Event
	record := funcSink(func(ev Event) { events = append(events, ev) })
	cfg.Sinks = append(append([]Sink(nil), cfg.Sinks...), record)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

// perSessionTraces is the per-session reference of a monitored fleet:
// every slot of cfg's patient x scenario matrix (Sessions zero) runs
// alone through a closedloop.Stepper with its own monitor from newMon,
// its scalar patient and, with a sensor model, the session RNG the
// fleet derives from the slot's coordinates; mitigation follows
// cfg.Mitigate. The fleet's shard-batched monitors must reproduce it.
func perSessionTraces(t *testing.T, cfg Config, newMon func() (monitor.Monitor, error)) []*trace.Trace {
	t.Helper()
	steps, cycle := cfg.Steps, cfg.CycleMin
	if steps == 0 {
		steps = 150
	}
	if cycle == 0 {
		cycle = 5
	}
	mitigation := cfg.Mitigation
	mitigation.Enabled = cfg.Mitigate
	var out []*trace.Trace
	for _, p := range cfg.Patients {
		for j, prog := range cfg.Scenarios {
			patient, err := cfg.Platform.NewPatient(p)
			if err != nil {
				t.Fatal(err)
			}
			ctrl, err := cfg.Platform.NewController(patient.Basal())
			if err != nil {
				t.Fatal(err)
			}
			mon, err := newMon()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := prog.Compile(steps, cycle)
			if err != nil {
				t.Fatal(err)
			}
			var opts closedloop.StepperOptions
			if cfg.Sensor != nil {
				seed := sessionSeed(cfg.Seed, spec{index: len(out), patientIdx: p, scenIdx: j})
				sm, err := sensor.New(*cfg.Sensor, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				opts.Sensor = sm.Read
			}
			st, err := closedloop.NewStepper(closedloop.Config{
				Platform: cfg.Platform.Name + "/" + ctrl.Name(), Steps: steps, CycleMin: cycle,
				Patient: patient, Controller: ctrl, Monitor: mon, Mitigation: mitigation, Plan: plan,
			}, opts)
			if err != nil {
				t.Fatal(err)
			}
			for !st.Done() {
				st.Step()
			}
			out = append(out, st.Finish())
		}
	}
	return out
}

// alarmedAndHazardous counts the traces with an alarm and the traces
// with a hazard, as Result.Alarmed and Result.Hazardous count sessions.
func alarmedAndHazardous(traces []*trace.Trace) (alarmed, hazardous int64) {
	for _, tr := range traces {
		for _, s := range tr.Samples {
			if s.Alarm {
				alarmed++
				break
			}
		}
		if tr.DominantHazard() != trace.HazardNone {
			hazardous++
		}
	}
	return alarmed, hazardous
}

// streamRecorder records a one-lane context-aware monitor's streaming
// verdict after every step.
type streamRecorder struct {
	*monitor.ContextAwareLane
	seen []scs.StreamVerdict
}

// Step implements monitor.Monitor.
func (r *streamRecorder) Step(obs monitor.Observation) monitor.Verdict {
	v := r.ContextAwareLane.Step(obs)
	sv, _ := r.StreamVerdict()
	r.seen = append(r.seen, sv)
	return v
}

// replayStreaming replays a trace through a fresh one-lane CAWOT and
// returns its verdicts and the streaming verdict of every cycle: what
// FromMonitor telemetry must have emitted for the trace.
func replayStreaming(t *testing.T, tr *trace.Trace) ([]monitor.Verdict, []scs.StreamVerdict) {
	t.Helper()
	m, err := monitor.NewCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &streamRecorder{ContextAwareLane: m}
	return monitor.Replay(rec, tr), rec.seen
}

// TestSessionMatchesClosedLoopRun pins the fleet session to the one-shot
// simulator: a single session must reproduce closedloop.Run exactly.
func TestSessionMatchesClosedLoopRun(t *testing.T) {
	plat := glucosymPlatform()
	sc := fault.Campaign(nil)[97]

	res, err := Run(context.Background(), Config{
		Platform: plat, Patients: []int{2},
		Scenarios: []fault.Program{sc.Program()}, Steps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("%d traces, want 1", len(res.Traces))
	}

	patient, err := plat.NewPatient(2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := plat.NewController(patient.Basal())
	if err != nil {
		t.Fatal(err)
	}
	f := sc.Fault
	want, err := closedloop.Run(closedloop.Config{
		Platform: "glucosym/" + ctrl.Name(), Steps: 60,
		InitialBG: sc.InitialBG, Patient: patient, Controller: ctrl, Fault: &f,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Traces[0]
	if got.Len() != want.Len() {
		t.Fatalf("length %d vs %d", got.Len(), want.Len())
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, got.Samples[i], want.Samples[i])
		}
	}
}

// TestFleetDeterministicAcrossParallelism is the golden determinism
// guard: with sensor noise active (per-session RNG in the loop), the
// serialized traces must be byte-identical at Parallel=1 and
// Parallel=NumCPU.
func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 3},
		Scenarios: thinScenarios(40),
		Steps:     40,
		Seed:      42,
		Sensor:    &sensor.Config{NoiseSD: 3},
	}
	run := func(parallel int) []byte {
		cfg := base
		cfg.Parallel = parallel
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tracesCSV(t, res.Traces)
	}
	golden := run(1)
	for _, p := range []int{runtime.NumCPU(), 7} {
		if got := run(p); !bytes.Equal(got, golden) {
			t.Fatalf("Parallel=%d traces differ from Parallel=1 golden", p)
		}
	}

	// A different master seed must change noisy traces (the noise is
	// real, not a constant).
	cfg := base
	cfg.Seed = 43
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(tracesCSV(t, res.Traces), golden) {
		t.Fatal("seed 43 reproduced seed 42 traces — RNG not wired")
	}
}

// TestFleetThousandSessions drives ≥1000 concurrent sessions to
// completion; under -race this is the engine's race coverage.
func TestFleetThousandSessions(t *testing.T) {
	const sessions = 1000
	events, res := runEvents(t, Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 1, 2, 3, 4},
		Scenarios: thinScenarios(20), // 45 scenarios: 225-slot matrix, wrapped
		Sessions:  sessions,
		Steps:     25,
		// 4 shards x 250-session windows: all 1000 sessions are live
		// and interleaved concurrently.
		Parallel:        4,
		MaxLivePerShard: 250,
		Seed:            7,
		Sensor:          &sensor.Config{NoiseSD: 2},
		ProgressEvery:   250,
	})
	counts := make(map[EventKind]int)
	for _, ev := range events {
		counts[ev.Kind]++
	}
	if res.Sessions != sessions || res.Completed != sessions {
		t.Fatalf("sessions %d completed %d, want %d", res.Sessions, res.Completed, sessions)
	}
	if res.Steps != sessions*25 {
		t.Fatalf("steps %d, want %d", res.Steps, sessions*25)
	}
	if len(res.Traces) != sessions {
		t.Fatalf("%d traces", len(res.Traces))
	}
	for i, tr := range res.Traces {
		if tr == nil {
			t.Fatalf("trace %d missing", i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
	}
	if counts[EventSessionStart] != sessions || counts[EventSessionDone] != sessions {
		t.Fatalf("events: %d starts, %d dones, want %d each",
			counts[EventSessionStart], counts[EventSessionDone], sessions)
	}
	if counts[EventProgress] != sessions/250 {
		t.Fatalf("%d progress events, want %d", counts[EventProgress], sessions/250)
	}
}

// TestFleetCancellation stops a finite run early and expects an error.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0},
		Scenarios: thinScenarios(40),
		Steps:     150,
	})
	if err == nil {
		t.Fatal("cancelled finite run should fail")
	}
}

// TestFleetContinuous runs the serving mode under a deadline: slots
// restart as replicas until cancellation, traces are recycled, and the
// deadline is not an error.
func TestFleetContinuous(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, Config{
		Platform:   glucosymPlatform(),
		Patients:   []int{0},
		Scenarios:  thinScenarios(200), // 5 scenarios: 5 slots
		Steps:      5,
		Parallel:   2,
		Continuous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != nil {
		t.Fatal("continuous mode must not retain traces")
	}
	if res.Completed <= int64(res.Sessions) {
		t.Fatalf("completed %d sessions across %d slots — no replica restarts in 300ms",
			res.Completed, res.Sessions)
	}
}

// trainFleetMLP fits a small MLP on traces from a monitor-less campaign.
func trainFleetMLP(t *testing.T, scenarios []fault.Program) *ml.MLP {
	t.Helper()
	res, err := Run(context.Background(), Config{
		Platform: glucosymPlatform(), Patients: []int{0},
		Scenarios: scenarios, Steps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	X, y, err := monitor.DrawRows(res.Traces, false, math.MaxInt, nil)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := ml.FitMLP(X, y, ml.MLPConfig{Hidden: []int{16}, Epochs: 3}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return mlp
}

// TestFleetBatchedMonitorMatchesPerSession runs a fleet with per-shard
// batched MLP inference under mitigation and compares it with the
// per-session reference, every session alone with a one-lane MLP
// monitor; the traces must be identical at any parallelism: a lane's
// verdicts do not depend on the batch width or its neighbours.
func TestFleetBatchedMonitorMatchesPerSession(t *testing.T) {
	scenarios := thinScenarios(30)
	mlp := trainFleetMLP(t, scenarios[:10])

	cfg := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 1},
		Scenarios: scenarios,
		Steps:     50,
		Mitigate:  true,
		NewBatchMonitor: func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchML("MLP", mlp.NewBatch())
		},
	}
	want := perSessionTraces(t, cfg, func() (monitor.Monitor, error) {
		return monitor.NewMLMonitor("MLP", mlp.NewBatch())
	})
	alarmed, hazardous := alarmedAndHazardous(want)
	if alarmed == 0 {
		t.Fatal("monitor never alarmed — comparison is vacuous")
	}
	for _, parallel := range []int{1, 3} {
		cfg.Parallel = parallel
		batch, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tracesCSV(t, want), tracesCSV(t, batch.Traces)) {
			t.Fatalf("Parallel=%d: batched-inference traces differ from per-session traces", parallel)
		}
		if batch.Alarmed != alarmed || batch.Hazardous != hazardous {
			t.Fatalf("Parallel=%d: counters %+v, per-session alarmed %d hazardous %d", parallel, batch, alarmed, hazardous)
		}
	}
}

// robKey locates one telemetry emission within a run.
type robKey struct {
	session, replica, step int
}

// robVal is every robustness field an EventRobustness carries.
type robVal struct {
	rob, margin float64
	rule, mrule int
	hazard      trace.HazardType
}

// collectRobustness runs a fleet with streaming STL telemetry attached
// and returns every EventRobustness keyed by (session, replica, step),
// failing on duplicates.
func collectRobustness(t *testing.T, cfg Config) (map[robKey]robVal, Result) {
	t.Helper()
	events, res := runEvents(t, cfg)
	got := make(map[robKey]robVal)
	for _, ev := range events {
		if ev.Kind != EventRobustness {
			continue
		}
		k := robKey{ev.Session, ev.Replica, ev.Step}
		if _, dup := got[k]; dup {
			t.Errorf("duplicate robustness event for %+v", k)
		}
		got[k] = robVal{
			rob: ev.Robustness, margin: ev.Margin,
			rule: ev.Rule, mrule: ev.MarginRule, hazard: ev.Hazard,
		}
	}
	return got, res
}

// TestFleetTelemetryMatchesOfflineSTL is the offline/online equivalence
// check for the hazard-telemetry path: the margins streamed live by the
// per-session incremental engine must exactly equal re-evaluating the
// Table I rule formulas offline on the recorded traces at every index.
func TestFleetTelemetryMatchesOfflineSTL(t *testing.T) {
	// Include the truncate-glucose availability attack from a
	// hyperglycemic start: the controller engages low-glucose suspend
	// and stops insulin while actually hyperglycemic, violating rule 9.
	scenarios := append(thinScenarios(80), fault.Scenario{
		Fault: fault.Fault{
			Kind: fault.KindTruncate, Target: "glucose",
			StartStep: 10, Duration: 40,
		},
		InitialBG: 170,
	}.Program())
	cfg := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: scenarios,
		Steps:     50,
		Telemetry: &TelemetryConfig{},
	}
	got, res := collectRobustness(t, cfg)
	if len(res.Traces) == 0 {
		t.Fatal("no traces retained")
	}
	wantEvents := len(res.Traces) * cfg.Steps
	if len(got) != wantEvents {
		t.Fatalf("%d robustness events, want %d", len(got), wantEvents)
	}

	rules := scs.TableI()
	th := scs.Defaults(rules)
	formulas := make([]stl.Formula, len(rules))
	for i, r := range rules {
		formulas[i] = r.STL(scs.Params{}, th[r.ID])
	}
	violations := 0
	for sess, tr := range res.Traces {
		offline, err := stl.NewTrace(tr.CycleMin)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Samples {
			s := &tr.Samples[i]
			offline.Append(map[string]float64{
				"BG": s.CGM, "BG'": s.BGPrime, "IOB": s.IOB, "IOB'": s.IOBPrime,
				"u": float64(s.Action),
			})
			wantRob, wantRule := 0.0, 0
			for k := range formulas {
				rob, err := formulas[k].Robustness(offline, i)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 || rob < wantRob {
					wantRob, wantRule = rob, rules[k].ID
				}
			}
			ev, ok := got[robKey{sess, 0, i}]
			if !ok {
				t.Fatalf("session %d step %d: no robustness event", sess, i)
			}
			if ev.rob != wantRob || ev.rule != wantRule {
				t.Fatalf("session %d step %d: streamed %v (rule %d), offline %v (rule %d)",
					sess, i, ev.rob, ev.rule, wantRob, wantRule)
			}
			if wantRob < 0 {
				violations++
			}
		}
	}
	if violations == 0 {
		t.Fatal("no negative margins across a fault campaign — comparison is vacuous")
	}
}

// TestFleetTelemetryDeterministicAcrossParallelism: telemetry values are
// a pure function of the session, so the (session, step) -> margin map
// must be identical at any parallelism level even though event order is
// not.
func TestFleetTelemetryDeterministicAcrossParallelism(t *testing.T) {
	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 3},
		Scenarios: thinScenarios(80),
		Steps:     30,
		Seed:      11,
		Sensor:    &sensor.Config{NoiseSD: 2},
		Telemetry: &TelemetryConfig{Every: 3},
	}
	run := func(parallel int) map[robKey]robVal {
		cfg := base
		cfg.Parallel = parallel
		got, res := collectRobustness(t, cfg)
		want := len(res.Traces) * base.Steps / base.Telemetry.Every
		if len(got) != want {
			t.Fatalf("Parallel=%d: %d events, want %d (Every=%d)",
				parallel, len(got), want, base.Telemetry.Every)
		}
		return got
	}
	golden := run(1)
	parallel := run(runtime.NumCPU())
	if len(golden) != len(parallel) {
		t.Fatalf("event counts differ: %d vs %d", len(golden), len(parallel))
	}
	for k, v := range golden {
		if pv, ok := parallel[k]; !ok || pv != v {
			t.Fatalf("event %+v differs across parallelism: %+v vs %+v", k, v, pv)
		}
	}
}

// TestFleetTelemetryContinuous: telemetry survives continuous-mode
// replica churn (stream sets reset and carry over between replicas).
func TestFleetTelemetryContinuous(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	var robCount int
	replicas := make(map[int]bool)
	count := funcSink(func(ev Event) {
		if ev.Kind == EventRobustness {
			robCount++
			replicas[ev.Replica] = true
		}
	})
	res, err := Run(ctx, Config{
		Platform:   glucosymPlatform(),
		Patients:   []int{0},
		Scenarios:  thinScenarios(300), // 3 scenarios: 3 slots
		Steps:      5,
		Parallel:   2,
		Continuous: true,
		Telemetry:  &TelemetryConfig{},
		Sinks:      []Sink{count},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed <= int64(res.Sessions) {
		t.Fatalf("no replica restarts in 300ms (completed %d)", res.Completed)
	}
	if robCount == 0 {
		t.Fatal("no robustness events in continuous mode")
	}
	if len(replicas) < 2 {
		t.Fatalf("telemetry seen for %d replica generations, want >= 2", len(replicas))
	}
}

// TestFleetValidation covers config error paths.
func TestFleetValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("empty platform should fail")
	}
	cfg := Config{
		Platform: glucosymPlatform(), Patients: []int{99},
		Scenarios: thinScenarios(200), Steps: 5,
	}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("out-of-cohort patient should fail")
	}
	ring, err := NewRingSink(8)
	if err != nil {
		t.Fatal(err)
	}
	negEpoch := Config{
		Platform:  glucosymPlatform(),
		SinkEpoch: -1,
		Sinks:     []Sink{ring},
	}
	if _, err := Run(context.Background(), negEpoch); err == nil {
		t.Error("negative SinkEpoch should fail")
	}
	// Sinks on a continuous fleet run with epoch delivery (the default
	// SinkEpoch bounds the buffers; TestShardedSinksContinuousBounded
	// exercises the run itself).
	continuousSinks := Config{
		Platform:   glucosymPlatform(),
		Patients:   []int{0},
		Scenarios:  thinScenarios(300),
		Steps:      5,
		Continuous: true,
		Sinks:      []Sink{ring},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := Run(ctx, continuousSinks); err != nil {
		t.Errorf("sinks on a continuous fleet should run with epoch delivery: %v", err)
	}
	noSinks := Config{
		Platform:  glucosymPlatform(),
		Telemetry: &TelemetryConfig{},
	}
	if _, err := Run(context.Background(), noSinks); err == nil {
		t.Error("Telemetry without Sinks should fail")
	}
}

// allKindScenarios builds a scenario subset guaranteed to cover every
// fault kind in the Table II campaign, plus a handful of extras, in
// program form.
func allKindScenarios(perKind int) []fault.Program {
	all := fault.Campaign(nil)
	taken := make(map[fault.Kind]int)
	var out []fault.Scenario
	for _, sc := range all {
		if taken[sc.Fault.Kind] < perKind {
			taken[sc.Fault.Kind]++
			out = append(out, sc)
		}
	}
	if len(taken) != len(fault.Kinds) {
		panic("campaign does not cover every fault kind")
	}
	return fault.Programs(out)
}

// TestFleetBatchedTelemetryMatchesPerSession is the batched-telemetry
// differential: the shard-batched telemetry engine must emit exactly
// the robustness events — margin, arg-min rule, margin rule, hazard,
// for every session and emitted step — that replaying each session's
// retained trace through its own fresh one-lane scs.BatchStreamSet
// produces, across
// every fault kind, with sensor noise, under margin-scaled mitigation,
// with an Every stride, at multiple parallelism levels. Traces must
// also be byte-identical to the same fleet without telemetry
// (telemetry never perturbs simulation).
func TestFleetBatchedTelemetryMatchesPerSession(t *testing.T) {
	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: allKindScenarios(3),
		Steps:     40,
		Seed:      13,
		Sensor:    &sensor.Config{NoiseSD: 2},
	}
	// replay is the per-session reference: one one-lane set per retained
	// trace, emitting on the same Every stride the engine honours.
	replay := func(traces []*trace.Trace, every int) map[robKey]robVal {
		want := make(map[robKey]robVal)
		out := make([]scs.StreamVerdict, 1)
		for sess, tr := range traces {
			ss, err := scs.NewBatchStreamSet(scs.TableI(), nil, scs.Params{}, tr.CycleMin, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Samples {
				smp := &tr.Samples[i]
				if err := ss.PushLanes([]int{0}, []scs.State{scs.StateFromSample(smp)}, out); err != nil {
					t.Fatal(err)
				}
				v := out[0]
				if (smp.Step+1)%every == 0 {
					want[robKey{sess, 0, smp.Step}] = robVal{
						rob: v.MinRobust, margin: v.Margin,
						rule: v.WorstRule, mrule: v.Rule, hazard: v.Hazard,
					}
				}
			}
		}
		return want
	}

	for _, mitigate := range []bool{false, true} {
		cfg := base
		every := 1
		if mitigate {
			cfg.NewBatchMonitor = func() (monitor.BatchMonitor, error) {
				return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
			}
			cfg.Mitigate = true
			cfg.Mitigation = closedloop.MitigationConfig{ScaleByMargin: true}
			every = 3
		}
		label := "mitigate=" + map[bool]string{false: "off", true: "on"}[mitigate]
		for _, parallel := range []int{1, runtime.NumCPU()} {
			cfg.Parallel = parallel
			cfg.Telemetry = &TelemetryConfig{Every: every}
			got, res := collectRobustness(t, cfg)
			want := replay(res.Traces, every)
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("%s Parallel=%d: event counts differ: batched %d vs per-session replay %d",
					label, parallel, len(got), len(want))
			}
			hazards, violations := 0, 0
			for k, v := range got {
				if wv, ok := want[k]; !ok || wv != v {
					t.Fatalf("%s Parallel=%d event %+v differs: batched %+v vs per-session replay %+v",
						label, parallel, k, v, wv)
				}
				if v.margin < 0 {
					violations++
				}
				if v.hazard != trace.HazardNone {
					hazards++
				}
			}
			if violations == 0 || hazards == 0 {
				t.Fatalf("%s Parallel=%d: %d violations, %d hazards across an all-kind fault campaign — comparison is vacuous",
					label, parallel, violations, hazards)
			}

			plain := cfg
			plain.Telemetry = nil
			resPlain, err := Run(context.Background(), plain)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tracesCSV(t, res.Traces), tracesCSV(t, resPlain.Traces)) {
				t.Fatalf("%s Parallel=%d: telemetry perturbed the traces", label, parallel)
			}
		}
	}
}

// TestFleetFromMonitorBatchedCAWT: FromMonitor telemetry served by the
// shard-batched context-aware monitor must reproduce the per-session
// reference exactly — the traces of every session run alone with a
// one-lane CAWOT, and the robustness events that monitor's streaming
// verdicts give over each trace — including under margin-scaled
// mitigation with sensor noise, where verdict margins feed back into
// insulin delivery.
func TestFleetFromMonitorBatchedCAWT(t *testing.T) {
	cfg := Config{
		Platform:   glucosymPlatform(),
		Patients:   []int{0, 3},
		Scenarios:  allKindScenarios(2),
		Steps:      40,
		Seed:       29,
		Sensor:     &sensor.Config{NoiseSD: 2},
		Mitigate:   true,
		Mitigation: closedloop.MitigationConfig{ScaleByMargin: true},
		Telemetry:  &TelemetryConfig{FromMonitor: true},
		NewBatchMonitor: func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
		},
	}
	want := perSessionTraces(t, cfg, func() (monitor.Monitor, error) {
		return monitor.NewCAWOT(scs.TableI(), scs.Params{})
	})
	alarmed, hazardous := alarmedAndHazardous(want)
	if alarmed == 0 {
		t.Fatal("monitor never alarmed — comparison is vacuous")
	}
	got, res := collectRobustness(t, cfg)
	if res.Alarmed != alarmed || res.Hazardous != hazardous {
		t.Fatalf("counters %+v, per-session alarmed %d hazardous %d", res, alarmed, hazardous)
	}
	if !bytes.Equal(tracesCSV(t, want), tracesCSV(t, res.Traces)) {
		t.Fatal("batched-CAWT traces differ from per-session CAWT traces")
	}
	events := 0
	for sess, tr := range want {
		_, streamed := replayStreaming(t, tr)
		for i, sv := range streamed {
			k := robKey{sess, 0, tr.Samples[i].Step}
			wv := robVal{rob: sv.MinRobust, margin: sv.Margin, rule: sv.WorstRule, mrule: sv.Rule, hazard: sv.Hazard}
			if gv, ok := got[k]; !ok || gv != wv {
				t.Fatalf("event %+v differs: batched %+v vs per-session %+v", k, gv, wv)
			}
			events++
		}
	}
	if events == 0 || events != len(got) {
		t.Fatalf("event counts differ: batched %d vs per-session %d", len(got), events)
	}
}

// TestFleetBatchedSteppingMatchesPerSession is the batched-stepping
// differential: the shard-batched struct-of-arrays patient/sensor
// stepping (the default on platforms providing NewBatchPatient) must
// produce byte-identical traces, identical robustness telemetry, and
// identical counters to the scalar reference — the same platform with
// NewBatchPatient removed — across every fault kind, with sensor
// noise, with margin-scaled mitigation on and off, at multiple
// parallelism levels.
func TestFleetBatchedSteppingMatchesPerSession(t *testing.T) {
	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: allKindScenarios(3),
		Steps:     50,
		Seed:      31,
		Sensor:    &sensor.Config{NoiseSD: 2.5},
		Telemetry: &TelemetryConfig{},
	}
	for _, mitigate := range []bool{false, true} {
		cfg := base
		if mitigate {
			cfg.NewBatchMonitor = func() (monitor.BatchMonitor, error) {
				return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
			}
			cfg.Mitigate = true
			cfg.Mitigation = closedloop.MitigationConfig{ScaleByMargin: true}
		}
		for _, parallel := range []int{1, runtime.NumCPU()} {
			batched := cfg
			batched.Parallel = parallel
			oracle := batched
			oracle.Platform.NewBatchPatient = nil

			gotB, resB := collectRobustness(t, batched)
			gotP, resP := collectRobustness(t, oracle)
			tracesB := tracesCSV(t, resB.Traces)
			tracesP := tracesCSV(t, resP.Traces)

			label := "mitigate=" + map[bool]string{false: "off", true: "on"}[mitigate]
			violations := 0
			for _, v := range gotP {
				if v.margin < 0 {
					violations++
				}
			}
			if violations == 0 {
				t.Fatalf("%s Parallel=%d: no STL violations across an all-kind campaign — comparison is vacuous",
					label, parallel)
			}
			if mitigate && resP.Alarmed == 0 {
				t.Fatalf("%s Parallel=%d: monitor never alarmed — mitigation leg is vacuous", label, parallel)
			}
			if resB.Hazardous != resP.Hazardous || resB.Alarmed != resP.Alarmed || resB.Steps != resP.Steps {
				t.Fatalf("%s Parallel=%d: counters differ: batched %+v vs per-session %+v",
					label, parallel, resB, resP)
			}
			if len(gotB) == 0 || len(gotB) != len(gotP) {
				t.Fatalf("%s Parallel=%d: robustness event counts differ: %d vs %d",
					label, parallel, len(gotB), len(gotP))
			}
			for k, v := range gotB {
				if pv, ok := gotP[k]; !ok || pv != v {
					t.Fatalf("%s Parallel=%d: event %+v differs: batched %+v vs per-session %+v",
						label, parallel, k, v, pv)
				}
			}
			if !bytes.Equal(tracesB, tracesP) {
				t.Fatalf("%s Parallel=%d: traces differ between batched and per-session stepping", label, parallel)
			}
		}
	}
}

// TestFleetBatchedSteppingUVA runs the second platform's batch backend
// through the same scalar-reference comparison (single parallelism
// level; the scheduling-independence legs above already cover
// parallelism).
func TestFleetBatchedSteppingUVA(t *testing.T) {
	base := Config{
		Platform: Platform{
			Name:        "t1ds2013",
			NumPatients: uvapadova.NumPatients,
			NewPatient: func(idx int) (closedloop.Patient, error) {
				return uvapadova.New(idx)
			},
			NewBatchPatient: func(lanes int) (sim.BatchPatient, error) {
				return uvapadova.NewBatch(lanes)
			},
			NewController: func(basal float64) (control.Controller, error) {
				return control.NewBasalBolus(control.BasalBolusConfig{Basal: basal, ISF: 40})
			},
		},
		Patients:  []int{0, 5},
		Scenarios: allKindScenarios(1),
		Steps:     40,
		Seed:      17,
		Sensor:    &sensor.Config{NoiseSD: 2},
	}
	oracle := base
	oracle.Platform.NewBatchPatient = nil
	resB, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := Run(context.Background(), oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tracesCSV(t, resB.Traces), tracesCSV(t, resP.Traces)) {
		t.Fatal("UVA-Padova batched traces differ from per-session stepping")
	}
}
