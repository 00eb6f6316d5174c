package scs

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// randBoundaryState draws a context state concentrated around the Table I
// decision boundaries (BGT, derivative tolerance bands, IOB thresholds)
// so the differential comparison exercises ties and near-boundary
// arithmetic, not just deep-interior points.
func randBoundaryState(rng *rand.Rand) State {
	s := State{
		BG:       40 + 300*rng.Float64(),
		BGPrime:  -6 + 12*rng.Float64(),
		IOB:      -3 + 12*rng.Float64(),
		IOBPrime: -0.05 + 0.1*rng.Float64(),
		Action:   trace.Action(1 + rng.Intn(4)),
	}
	switch rng.Intn(4) {
	case 0:
		s.BG = DefaultBGT + rng.NormFloat64() // hug the BGT boundary
	case 1:
		s.BGPrime = rng.NormFloat64() * DefaultBGDerivEps
		s.IOBPrime = rng.NormFloat64() * DefaultIOBDerivEps
	}
	return snapToGrid(rng, s)
}

// Table I's comparison points: BGT and rule 10's β candidates for BG,
// and IOB β candidates, the defaults 0.5 and 2 among them. The trend
// atoms compare the derivatives with ±eps. States and thresholds draw
// part of their values from these grids, so a state sits exactly on a
// threshold, where strict and non-strict atoms differ.
var (
	bgGrid  = []float64{DefaultBGT, 70, 90}
	iobGrid = []float64{-1, 0.5, 2, 4}
)

// snapToGrid moves each field of s onto a comparison point with
// probability 1/4.
func snapToGrid(rng *rand.Rand, s State) State {
	if rng.Intn(4) == 0 {
		s.BG = bgGrid[rng.Intn(len(bgGrid))]
	}
	if rng.Intn(4) == 0 {
		s.BGPrime = DefaultBGDerivEps * float64(rng.Intn(3)-1)
	}
	if rng.Intn(4) == 0 {
		s.IOB = iobGrid[rng.Intn(len(iobGrid))]
	}
	if rng.Intn(4) == 0 {
		s.IOBPrime = DefaultIOBDerivEps * float64(rng.Intn(3)-1)
	}
	return s
}

// randThresholds perturbs the default β table within each rule's
// learnable bounds, half of the rules onto the grids' β candidates.
func randThresholds(rng *rand.Rand, rules []Rule) Thresholds {
	th := make(Thresholds, len(rules))
	for _, r := range rules {
		grid := iobGrid
		if r.LearnVar == "BG" {
			grid = bgGrid[1:] // rule 10's β lies in [40, 110]; BGT does not
		}
		if rng.Intn(2) == 0 {
			th[r.ID] = grid[rng.Intn(len(grid))]
		} else {
			th[r.ID] = r.Lo + (r.Hi-r.Lo)*rng.Float64()
		}
	}
	return th
}

// TestBatchStreamSetMatchesPerSession is the batched-telemetry
// correctness contract: one BatchStreamSet pushed across many lanes —
// randomized active subsets, staggered lane resets, randomized
// thresholds — must produce StreamVerdicts (margin, arg-min rule,
// hazard, satisfaction) and fired-rule sets exactly equal to one
// one-lane set per session: a lane's verdicts must not depend on the
// width or on which lanes share a push.
func TestBatchStreamSetMatchesPerSession(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	rules := TableI()
	for trial := 0; trial < 40; trial++ {
		var th Thresholds
		if trial%2 == 1 {
			th = randThresholds(rng, rules)
		}
		width := 1 + rng.Intn(8)
		batch, err := NewBatchStreamSet(rules, th, Params{}, 5, width)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*oneLane, width)
		for lane := range refs {
			if refs[lane], err = newOneLane(rules, th, Params{}); err != nil {
				t.Fatal(err)
			}
		}

		lanes := make([]int, 0, width)
		states := make([]State, 0, width)
		out := make([]StreamVerdict, width)
		violations := 0
		for step := 0; step < 60; step++ {
			if rng.Intn(10) == 0 {
				lane := rng.Intn(width)
				batch.ResetLane(lane)
				refs[lane].Reset()
			}
			lanes, states = lanes[:0], states[:0]
			for lane := 0; lane < width; lane++ {
				if rng.Intn(4) > 0 {
					lanes = append(lanes, lane)
					states = append(states, randBoundaryState(rng))
				}
			}
			if len(lanes) == 0 {
				lanes = append(lanes, rng.Intn(width))
				states = append(states, randBoundaryState(rng))
			}
			if err := batch.PushLanes(lanes, states, out); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for k, lane := range lanes {
				want, err := refs[lane].Push(states[k])
				if err != nil {
					t.Fatalf("trial %d step %d lane %d: %v", trial, step, lane, err)
				}
				if out[k] != want {
					t.Fatalf("trial %d step %d lane %d: batched %+v, per-session %+v",
						trial, step, lane, out[k], want)
				}
				gotFired, wantFired := batch.Fired(k), refs[lane].Fired()
				if len(gotFired) != len(wantFired) {
					t.Fatalf("trial %d step %d lane %d: fired %v vs %v",
						trial, step, lane, gotFired, wantFired)
				}
				for i := range gotFired {
					if gotFired[i] != wantFired[i] {
						t.Fatalf("trial %d step %d lane %d: fired %v vs %v",
							trial, step, lane, gotFired, wantFired)
					}
				}
				if !want.Sat {
					violations++
				}
			}
		}
		if violations == 0 {
			t.Fatalf("trial %d: no violations across randomized states — comparison is vacuous", trial)
		}
	}
}

// TestBatchStreamSetValidation covers the construction and push error
// paths.
func TestBatchStreamSetValidation(t *testing.T) {
	rules := TableI()
	if _, err := NewBatchStreamSet(nil, nil, Params{}, 5, 4); err == nil {
		t.Error("empty rule set should be rejected")
	}
	if _, err := NewBatchStreamSet(rules, nil, Params{}, 5, 0); err == nil {
		t.Error("zero width should be rejected")
	}
	if _, err := NewBatchStreamSet(rules, Thresholds{1: 0.5}, Params{}, 5, 4); err == nil {
		t.Error("incomplete threshold table should be rejected")
	}
	bad := append([]Rule{}, rules...)
	bad[0].Hazard = trace.HazardNone
	if _, err := NewBatchStreamSet(bad, nil, Params{}, 5, 4); err == nil {
		t.Error("hazardless rule should be rejected")
	}

	bs, err := NewBatchStreamSet(rules, nil, Params{}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]StreamVerdict, 2)
	if err := bs.PushLanes([]int{0}, nil, out); err == nil {
		t.Error("state/lane length mismatch should be rejected")
	}
	if err := bs.PushLanes([]int{0, 1}, make([]State, 2), out[:1]); err == nil {
		t.Error("short verdict buffer should be rejected")
	}
	if err := bs.PushLanes([]int{5}, make([]State, 1), out); err == nil {
		t.Error("out-of-range lane should be rejected")
	}
	if err := bs.PushLanes([]int{0, 1, 0}, make([]State, 3), make([]StreamVerdict, 3)); err == nil {
		t.Error("more lanes than width should be rejected, not panic")
	}
}
