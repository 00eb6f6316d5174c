package monitor_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/closedloop"
	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
	"repro/internal/sim/glucosym"
	"repro/internal/trace"
)

// diffTraces generates fleet traces covering every fault kind of the
// campaign matrix, optionally with per-session CGM sensor noise.
func diffTraces(t *testing.T, noise float64, seed int64) []*trace.Trace {
	t.Helper()
	all := fault.Campaign(nil)
	// Every 11th scenario: spans all six fault kinds and both targets.
	var scenarios []fault.Scenario
	for i := 0; i < len(all); i += 11 {
		scenarios = append(scenarios, all[i])
	}
	cfg := fleet.Config{
		Platform: fleet.Platform{
			Name:        "glucosym",
			NumPatients: glucosym.NumPatients,
			NewPatient: func(idx int) (closedloop.Patient, error) {
				return glucosym.New(idx)
			},
			NewController: func(basal float64) (control.Controller, error) {
				return control.NewOpenAPS(control.OpenAPSConfig{Basal: basal, ISF: 50})
			},
		},
		Patients:  []int{0, 2, 4},
		Scenarios: fault.Programs(scenarios),
		Steps:     60,
		Seed:      seed,
	}
	if noise > 0 {
		cfg.Sensor = &sensor.Config{NoiseSD: noise}
	}
	res, err := fleet.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Traces
}

// randomThresholds draws a β table uniformly inside each rule's
// learnable bounds.
func randomThresholds(rules []scs.Rule, rng *rand.Rand) scs.Thresholds {
	th := make(scs.Thresholds, len(rules))
	for _, r := range rules {
		th[r.ID] = r.Lo + (r.Hi-r.Lo)*rng.Float64()
	}
	return th
}

// TestStreamingCAWTMatchesLegacyDifferential is the redesign's core
// differential guarantee: over fleet-generated traces spanning every
// fault scenario kind, with and without sensor noise, and under
// randomized learned thresholds, the streaming context-aware monitor
// (the one-lane view NewCAWT builds) must produce bit-identical alarm and hazard sequences (and fired-rule
// sets) to the legacy eager evaluator — while additionally carrying a
// margin and rule attribution the legacy path cannot produce.
func TestStreamingCAWTMatchesLegacyDifferential(t *testing.T) {
	rules := scs.TableI()
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name  string
		noise float64
	}{
		{"clean", 0},
		{"sensor-noise", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			traces := diffTraces(t, tc.noise, 11)
			// Default (CAWOT) thresholds plus randomized CAWT tables.
			tables := []scs.Thresholds{scs.Defaults(rules)}
			for k := 0; k < 3; k++ {
				tables = append(tables, randomThresholds(rules, rng))
			}
			var alarms, margins int
			for ti, th := range tables {
				streaming, err := monitor.NewCAWT(rules, th, scs.Params{})
				if err != nil {
					t.Fatal(err)
				}
				legacy, err := monitor.NewContextAwareLegacy("CAWT", rules, th, scs.Params{})
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range traces {
					got := monitor.Replay(streaming, tr)
					want := monitor.Replay(legacy, tr)
					for i := range want {
						if got[i].Alarm != want[i].Alarm || got[i].Hazard != want[i].Hazard {
							t.Fatalf("thresholds %d, %s step %d: streaming (alarm=%v hazard=%v) vs legacy (alarm=%v hazard=%v)",
								ti, tr.Fault.Name, i, got[i].Alarm, got[i].Hazard, want[i].Alarm, want[i].Hazard)
						}
						if got[i].Alarm {
							alarms++
							if got[i].Margin > 0 || got[i].Rule == 0 {
								t.Fatalf("thresholds %d, %s step %d: alarm verdict lacks margin/rule: %+v",
									ti, tr.Fault.Name, i, got[i])
							}
						} else if got[i].Margin < 0 {
							t.Fatalf("thresholds %d, %s step %d: silent verdict with negative margin %v",
								ti, tr.Fault.Name, i, got[i].Margin)
						}
						if got[i].Rule != 0 {
							margins++
						}
						if got[i].Confidence < 0 || got[i].Confidence > 1 || math.IsNaN(got[i].Confidence) {
							t.Fatalf("confidence %v out of range", got[i].Confidence)
						}
					}
				}
			}
			if alarms == 0 {
				t.Fatal("no alarms across a full fault campaign — differential comparison is vacuous")
			}
			if margins == 0 {
				t.Fatal("streaming verdicts never carried rule attribution")
			}
		})
	}
}

// TestStreamingCAWTFiredRulesMatchLegacy drives both evaluators over
// randomized raw observations (beyond what closed-loop dynamics reach)
// and requires identical fired-rule diagnostics.
func TestStreamingCAWTFiredRulesMatchLegacy(t *testing.T) {
	rules := scs.TableI()
	rng := rand.New(rand.NewSource(23))
	th := randomThresholds(rules, rng)
	streaming, err := monitor.NewCAWT(rules, th, scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := monitor.NewContextAwareLegacy("CAWT", rules, th, scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		obs := monitor.Observation{
			Step: i, TimeMin: float64(i) * 5, CycleMin: 5,
			CGM:     40 + 360*rng.Float64(),
			BGPrime: -8 + 16*rng.Float64(),
			IOB:     -4 + 14*rng.Float64(),
			// Concentrate derivatives near the eps boundaries to stress
			// trend-band edges.
			IOBPrime: (-1 + 2*rng.Float64()) * 0.006,
			Action:   trace.Action(1 + rng.Intn(4)),
		}
		gv, wv := streaming.Step(obs), legacy.Step(obs)
		if gv.Alarm != wv.Alarm || gv.Hazard != wv.Hazard {
			t.Fatalf("step %d: streaming %+v vs legacy %+v (obs %+v)", i, gv, wv, obs)
		}
		gf, wf := streaming.FiredRules(), legacy.FiredRules()
		if len(gf) != len(wf) {
			t.Fatalf("step %d: fired %v vs legacy %v", i, gf, wf)
		}
		for k := range gf {
			if gf[k] != wf[k] {
				t.Fatalf("step %d: fired %v vs legacy %v", i, gf, wf)
			}
		}
	}
}

// TestReplayWarnsOnZeroBasal: replaying a pre-basal trace through a
// basal-sensitive monitor must warn loudly (satellite of the re-record
// task: the warning is what catches stale fixtures).
func TestReplayWarnsOnZeroBasal(t *testing.T) {
	tr := &trace.Trace{CycleMin: 5, PatientID: "glucosym-0", Platform: "glucosym/openaps"}
	for i := 0; i < 10; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{Step: i, CGM: 120, Rate: 1.3})
	}
	mpc, err := monitor.NewMPC(monitor.MPCConfig{Basal: 1.3})
	if err != nil {
		t.Fatal(err)
	}

	warned := monitor.CaptureReplayWarnings(t)
	monitor.Replay(mpc, tr) // Basal == 0: must warn
	if len(*warned) == 0 {
		t.Fatal("no warning for a basal-sensitive monitor on a Basal==0 trace")
	}

	*warned = (*warned)[:0]
	tr.Basal = 1.3
	monitor.Replay(mpc, tr)
	if len(*warned) != 0 {
		t.Fatalf("unexpected warning on a basal-carrying trace: %v", *warned)
	}

	// Monitors without basal sensitivity replay quietly either way.
	tr.Basal = 0
	cawot, err := monitor.NewCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	monitor.Replay(cawot, tr)
	if len(*warned) != 0 {
		t.Fatalf("unexpected warning for a basal-insensitive monitor: %v", *warned)
	}

	// The batched replay warns on the same traces: once per pre-basal
	// trace through the basal-sensitive batch MPC, never for CAWOT.
	withBasal := *tr
	withBasal.Basal = 1.3
	batchMPC, err := monitor.NewBatchMPC(monitor.MPCConfig{Basal: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	monitor.ReplayBatch(batchMPC, []*trace.Trace{tr, &withBasal, tr})
	if len(*warned) != 2 {
		t.Fatalf("ReplayBatch of two pre-basal traces through MPC: %d warnings, want 2: %v", len(*warned), *warned)
	}
	*warned = (*warned)[:0]
	batchCAWOT, err := monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	monitor.ReplayBatch(batchCAWOT, []*trace.Trace{tr, &withBasal})
	if len(*warned) != 0 {
		t.Fatalf("unexpected ReplayBatch warning for a basal-insensitive monitor: %v", *warned)
	}
}
