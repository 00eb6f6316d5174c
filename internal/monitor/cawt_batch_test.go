package monitor

import (
	"math/rand"
	"testing"

	"repro/internal/scs"
	"repro/internal/trace"
)

// randCAWTObs draws an observation stream covering safe and violating
// contexts, hugging the decision boundaries often enough that ties and
// near-zero margins are exercised.
func randCAWTObs(rng *rand.Rand, step int) Observation {
	o := Observation{
		Step: step, TimeMin: float64(step) * 5, CycleMin: 5,
		CGM:     40 + 300*rng.Float64(),
		BGPrime: -6 + 12*rng.Float64(),
		IOB:     -2 + 10*rng.Float64(), IOBPrime: -0.05 + 0.1*rng.Float64(),
		Action: trace.Action(1 + rng.Intn(4)),
	}
	if rng.Intn(4) == 0 {
		o.CGM = scs.DefaultBGT + rng.NormFloat64()
	}
	return o
}

// TestBatchCAWTMatchesPerSession: the shard-batched context-aware
// monitor must produce verdicts, streaming verdicts, and fired-rule
// diagnostics exactly equal to one per-session one-lane view per lane,
// across randomized observation streams, active-lane subsets, staggered
// lane resets, and both threshold modes (CAWT learned / CAWOT default).
// A lane's results must not depend on the width or on its neighbours.
func TestBatchCAWTMatchesPerSession(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	rules := scs.TableI()
	learned := scs.Defaults(rules)
	for id, beta := range learned {
		learned[id] = beta + rng.NormFloat64()
	}

	for trial := 0; trial < 20; trial++ {
		width := 1 + rng.Intn(6)
		var batch *BatchContextAware
		newRef := func() (*ContextAwareLane, error) { return NewCAWOT(rules, scs.Params{}) }
		var err error
		if trial%2 == 0 {
			batch, err = NewBatchCAWOT(rules, scs.Params{})
		} else {
			batch, err = NewBatchCAWT(rules, learned, scs.Params{})
			newRef = func() (*ContextAwareLane, error) { return NewCAWT(rules, learned, scs.Params{}) }
		}
		if err != nil {
			t.Fatal(err)
		}
		batch.ResetLanes(width)
		refs := make([]*ContextAwareLane, width)
		for lane := range refs {
			if refs[lane], err = newRef(); err != nil {
				t.Fatal(err)
			}
		}

		lanes := make([]int, 0, width)
		obs := make([]Observation, 0, width)
		out := make([]Verdict, width)
		laneStep := make([]int, width)
		alarms := 0
		for step := 0; step < 80; step++ {
			if rng.Intn(12) == 0 {
				lane := rng.Intn(width)
				batch.ResetLane(lane)
				refs[lane].Reset()
				laneStep[lane] = 0
			}
			lanes, obs = lanes[:0], obs[:0]
			for lane := 0; lane < width; lane++ {
				if rng.Intn(4) > 0 {
					lanes = append(lanes, lane)
					obs = append(obs, randCAWTObs(rng, laneStep[lane]))
					laneStep[lane]++
				}
			}
			if len(lanes) == 0 {
				continue
			}
			batch.StepBatch(lanes, obs, out)
			for k, lane := range lanes {
				want := refs[lane].Step(obs[k])
				if out[k] != want {
					t.Fatalf("trial %d step %d lane %d: batched %+v, per-session %+v",
						trial, step, lane, out[k], want)
				}
				if want.Alarm {
					alarms++
				}
				gotSV, gotOK := batch.StreamVerdictLane(lane)
				wantSV, wantOK := refs[lane].StreamVerdict()
				if gotOK != wantOK || gotSV != wantSV {
					t.Fatalf("trial %d step %d lane %d: stream verdict (%+v, %v) vs (%+v, %v)",
						trial, step, lane, gotSV, gotOK, wantSV, wantOK)
				}
				gotFired, wantFired := batch.FiredRulesLane(lane), refs[lane].FiredRules()
				if len(gotFired) != len(wantFired) {
					t.Fatalf("trial %d step %d lane %d: fired %v vs %v", trial, step, lane, gotFired, wantFired)
				}
				for i := range gotFired {
					if gotFired[i] != wantFired[i] {
						t.Fatalf("trial %d step %d lane %d: fired %v vs %v", trial, step, lane, gotFired, wantFired)
					}
				}
			}
		}
		if alarms == 0 {
			t.Fatalf("trial %d: no alarms across randomized contexts — comparison is vacuous", trial)
		}
	}
}

// TestBatchCAWTRecompilesAtObservedCycle: the batched monitor, at any
// width, recompiles its rule streams when the first observed cycle
// length differs from the construction default.
func TestBatchCAWTRecompilesAtObservedCycle(t *testing.T) {
	rules := scs.TableI()
	batch, err := NewBatchCAWOT(rules, scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	batch.ResetLanes(2)
	ref, err := NewCAWOT(rules, scs.Params{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	out := make([]Verdict, 2)
	for step := 0; step < 20; step++ {
		o := randCAWTObs(rng, step)
		o.CycleMin = 1 // non-default sampling period
		o2 := o
		o2.CGM += 10
		batch.StepBatch([]int{0, 1}, []Observation{o, o2}, out)
		if want := ref.Step(o); out[0] != want {
			t.Fatalf("step %d: batched %+v, per-session %+v at CycleMin=1", step, out[0], want)
		}
	}
	// Before any step, lanes report no streaming verdict.
	batch.ResetLanes(2)
	if _, ok := batch.StreamVerdictLane(0); ok {
		t.Fatal("fresh lane reports a streaming verdict")
	}
}

// BenchmarkNewCAWOT builds the one-lane CAWOT monitor a falsifier
// evaluation or a fresh session builds: Table I compiled into the
// hash-consed rule-stream DAG.
func BenchmarkNewCAWOT(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewCAWOT(scs.TableI(), scs.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}
