package scs

import (
	"math/rand"
	"testing"

	"repro/internal/stl"
	"repro/internal/trace"
)

// oneLane is a one-lane BatchStreamSet: the per-session rule evaluator
// the tests drive.
type oneLane struct {
	bs  *BatchStreamSet
	st  [1]State
	out [1]StreamVerdict
}

var lane0 = []int{0}

func newOneLane(rules []Rule, th Thresholds, p Params) (*oneLane, error) {
	bs, err := NewBatchStreamSet(rules, th, p, 5, 1)
	if err != nil {
		return nil, err
	}
	return &oneLane{bs: bs}, nil
}

// Push evaluates one cycle state.
func (o *oneLane) Push(s State) (StreamVerdict, error) {
	o.st[0] = s
	err := o.bs.PushLanes(lane0, o.st[:], o.out[:])
	return o.out[0], err
}

// Fired returns the rule IDs violated at the last push.
func (o *oneLane) Fired() []int { return o.bs.Fired(0) }

// Reset clears the lane, as a session restarting in place.
func (o *oneLane) Reset() { o.bs.ResetLane(0) }

// randState draws a context state, part of it on Table I's comparison
// points (snapToGrid).
func randState(rng *rand.Rand) State {
	return snapToGrid(rng, State{
		BG:       40 + 300*rng.Float64(),
		BGPrime:  -6 + 12*rng.Float64(),
		IOB:      -2 + 10*rng.Float64(),
		IOBPrime: -0.05 + 0.1*rng.Float64(),
		Action:   trace.Action(1 + rng.Intn(4)),
	})
}

// TestStreamSetMatchesRuleSemantics checks the streamed Table I bodies,
// on a one-lane set, against the direct Rule.Violated predicate and the
// offline STL trace semantics.
func TestStreamSetMatchesRuleSemantics(t *testing.T) {
	rules := TableI()
	th := Defaults(rules)
	var p Params
	ss, err := newOneLane(rules, th, p)
	if err != nil {
		t.Fatal(err)
	}

	offline, err := stl.NewTrace(5)
	if err != nil {
		t.Fatal(err)
	}
	formulas := make([]stl.Formula, len(rules))
	for i, r := range rules {
		formulas[i] = r.STL(p, th[r.ID])
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		s := randState(rng)
		offline.Append(map[string]float64{
			"BG": s.BG, "BG'": s.BGPrime, "IOB": s.IOB, "IOB'": s.IOBPrime,
			"u": float64(s.Action),
		})
		v, err := ss.Push(s)
		if err != nil {
			t.Fatal(err)
		}

		anyViolated := false
		for k, r := range rules {
			if r.Violated(s, p, th[r.ID]) {
				anyViolated = true
			}
			wantSat, err := formulas[k].Sat(offline, i)
			if err != nil {
				t.Fatal(err)
			}
			if wantSat == r.Violated(s, p, th[r.ID]) {
				t.Fatalf("step %d rule %d: STL sat %v contradicts Violated", i, r.ID, wantSat)
			}
		}
		if v.Sat == anyViolated {
			t.Errorf("step %d: streamed Sat=%v but anyViolated=%v", i, v.Sat, anyViolated)
		}

		// The streamed minimum margin must equal the offline minimum.
		wantMin, wantRule := 0.0, 0
		for k := range rules {
			rob, err := formulas[k].Robustness(offline, i)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 || rob < wantMin {
				wantMin, wantRule = rob, rules[k].ID
			}
		}
		if v.MinRobust != wantMin || v.WorstRule != wantRule {
			t.Errorf("step %d: streamed margin %v (rule %d), offline %v (rule %d)",
				i, v.MinRobust, v.WorstRule, wantMin, wantRule)
		}
	}
}

// TestStreamSetBoundedState: the full Table I set attached to a
// long-running session holds constant state and allocation-free pushes.
func TestStreamSetBoundedState(t *testing.T) {
	rules := TableI()
	ss, err := newOneLane(rules, Defaults(rules), Params{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if _, err := ss.Push(randState(rng)); err != nil {
			t.Fatal(err)
		}
	}
	state1k := ss.bs.StateSamples()
	s := randState(rng)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ss.Push(s); err != nil {
			t.Fatal(err)
		}
	})
	for ss.bs.Len() < 50_000 {
		if _, err := ss.Push(randState(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ss.bs.StateSamples(); got != state1k {
		// Table I bodies are pure predicates: zero buffered samples.
		t.Errorf("state changed with session length: %d at 1k, %d at 50k", state1k, got)
	}
	if allocs != 0 {
		t.Errorf("steady-state push allocates %.1f allocs", allocs)
	}
}

func TestStreamSetMissingThreshold(t *testing.T) {
	rules := TableI()
	th := Defaults(rules)
	delete(th, rules[3].ID)
	if _, err := newOneLane(rules, th, Params{}); err == nil {
		t.Error("missing threshold should be rejected")
	}
}

// TestStreamSetMarginSemantics pins the signed rule margin added by the
// verdict-API redesign: with every rule satisfied the margin is the
// minimum STL body robustness, and on a violation it is minus the
// violated rule's antecedent robustness (the depth inside the unsafe
// context), with H1 winning hazard ties — all computed offline here
// from the antecedent formulas the rules render.
func TestStreamSetMarginSemantics(t *testing.T) {
	rules := TableI()
	th := Defaults(rules)
	var p Params
	ss, err := newOneLane(rules, th, p)
	if err != nil {
		t.Fatal(err)
	}

	offline, err := stl.NewTrace(5)
	if err != nil {
		t.Fatal(err)
	}
	antes := make([]stl.Formula, len(rules))
	for i, r := range rules {
		antes[i] = r.Antecedent(p, th[r.ID])
	}

	rng := rand.New(rand.NewSource(17))
	var alarms, safes int
	for i := 0; i < 2000; i++ {
		s := randState(rng)
		offline.Append(map[string]float64{
			"BG": s.BG, "BG'": s.BGPrime, "IOB": s.IOB, "IOB'": s.IOBPrime,
			"u": float64(s.Action),
		})
		v, err := ss.Push(s)
		if err != nil {
			t.Fatal(err)
		}

		var wantFired []int
		wantMargin, wantRule := 0.0, 0
		wantH1 := false
		first := true
		for k, r := range rules {
			if !r.Violated(s, p, th[r.ID]) {
				continue
			}
			wantFired = append(wantFired, r.ID)
			if r.Hazard == trace.HazardH1 {
				wantH1 = true
			}
			rob, err := antes[k].Robustness(offline, i)
			if err != nil {
				t.Fatal(err)
			}
			if m := -rob; first || m < wantMargin {
				wantMargin, wantRule = m, r.ID
				first = false
			}
		}
		if len(wantFired) == 0 {
			safes++
			// Satisfied: margin is the body minimum (already checked to
			// equal the offline minimum by TestStreamSetMatchesRuleSemantics).
			if v.Margin != v.MinRobust || v.Rule != v.WorstRule {
				t.Fatalf("step %d: safe margin %v (rule %d) != MinRobust %v (rule %d)",
					i, v.Margin, v.Rule, v.MinRobust, v.WorstRule)
			}
			if v.Hazard != trace.HazardNone {
				t.Fatalf("step %d: hazard %v on a satisfied push", i, v.Hazard)
			}
			if v.Margin < 0 {
				t.Fatalf("step %d: satisfied push with negative margin %v", i, v.Margin)
			}
			continue
		}
		alarms++
		if v.Sat {
			t.Fatalf("step %d: Sat despite %v violated", i, wantFired)
		}
		if v.Margin != wantMargin || v.Rule != wantRule {
			t.Fatalf("step %d: margin %v (rule %d), want %v (rule %d)",
				i, v.Margin, v.Rule, wantMargin, wantRule)
		}
		if v.Margin > 0 {
			t.Fatalf("step %d: violation with positive margin %v", i, v.Margin)
		}
		wantHazard := trace.HazardH2
		if wantH1 {
			wantHazard = trace.HazardH1
		}
		if v.Hazard != wantHazard {
			t.Fatalf("step %d: hazard %v, want %v (fired %v)", i, v.Hazard, wantHazard, wantFired)
		}
		got := ss.Fired()
		if len(got) != len(wantFired) {
			t.Fatalf("step %d: fired %v, want %v", i, got, wantFired)
		}
		for j := range got {
			if got[j] != wantFired[j] {
				t.Fatalf("step %d: fired %v, want %v", i, got, wantFired)
			}
		}
	}
	if alarms == 0 || safes == 0 {
		t.Fatalf("degenerate coverage: %d alarms, %d safe pushes", alarms, safes)
	}
}

// TestStreamSetRejectsHazardlessRule: a rule without a hazard class is
// a construction bug (its violation would fabricate an H2 attribution).
func TestStreamSetRejectsHazardlessRule(t *testing.T) {
	rules := TableI()
	rules[3].Hazard = trace.HazardNone
	if _, err := newOneLane(rules, Defaults(rules), Params{}); err == nil {
		t.Error("hazard-less rule should be rejected")
	}
}
