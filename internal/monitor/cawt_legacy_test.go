package monitor

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/scs"
	"repro/internal/trace"
)

// ContextAwareLegacy is the pre-streaming context-aware monitor: it
// re-evaluates every Table I rule eagerly per step via Rule.Violated.
// NewCAWT/NewCAWOT evaluate the same rules through one incremental
// scs.BatchStreamSet lane, with bit-identical alarms and hazards plus
// margins and rule attribution the eager path cannot provide. The eager evaluator
// is test code: the reference for the randomized differential tests
// (cawt_diff_test.go) and the BenchmarkCAWTStep baseline.
type ContextAwareLegacy struct {
	name       string
	rules      []scs.Rule
	thresholds scs.Thresholds
	params     scs.Params

	lastFired []int // rule IDs fired at the last step (diagnostics)
}

var _ Monitor = (*ContextAwareLegacy)(nil)

// NewContextAwareLegacy builds the eager evaluator over the same inputs
// as NewCAWT/NewCAWOT (nil thresholds select the rules' defaults).
func NewContextAwareLegacy(name string, rules []scs.Rule, th scs.Thresholds, p scs.Params) (*ContextAwareLegacy, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("monitor: %s needs at least one rule", name)
	}
	if th == nil {
		th = scs.Defaults(rules)
	}
	for _, r := range rules {
		if _, ok := th[r.ID]; !ok {
			return nil, fmt.Errorf("monitor: %s missing threshold for rule %d", name, r.ID)
		}
		if r.Hazard == trace.HazardNone {
			// Mirror the streaming constructor: a hazard-less rule would
			// silently never alarm here while the streaming path reports
			// it, voiding the differential-oracle equivalence.
			return nil, fmt.Errorf("monitor: %s rule %d has no hazard class", name, r.ID)
		}
	}
	return &ContextAwareLegacy{
		name:       name,
		rules:      rules,
		thresholds: th,
		params:     p.WithDefaults(),
	}, nil
}

// Name implements Monitor.
func (m *ContextAwareLegacy) Name() string { return m.name }

// Reset implements Monitor.
func (m *ContextAwareLegacy) Reset() { m.lastFired = m.lastFired[:0] }

// Step implements Monitor: evaluate every rule on the current context;
// the predicted hazard is the type of the violated rule (H1 wins ties,
// being the acute hazard).
func (m *ContextAwareLegacy) Step(obs Observation) Verdict {
	st := scs.State{
		BG:       obs.CGM,
		BGPrime:  obs.BGPrime,
		IOB:      obs.IOB,
		IOBPrime: obs.IOBPrime,
		Action:   obs.Action,
	}
	m.lastFired = m.lastFired[:0]
	var hazard trace.HazardType
	for _, r := range m.rules {
		if r.Violated(st, m.params, m.thresholds[r.ID]) {
			m.lastFired = append(m.lastFired, r.ID)
			if hazard == trace.HazardNone || r.Hazard == trace.HazardH1 {
				hazard = r.Hazard
			}
		}
	}
	if hazard == trace.HazardNone {
		return Verdict{}
	}
	sort.Ints(m.lastFired)
	return Verdict{Alarm: true, Hazard: hazard}
}

// FiredRules returns the rule IDs that fired at the last step.
func (m *ContextAwareLegacy) FiredRules() []int {
	out := make([]int, len(m.lastFired))
	copy(out, m.lastFired)
	return out
}

// Thresholds returns the monitor's threshold table.
func (m *ContextAwareLegacy) Thresholds() scs.Thresholds { return m.thresholds }

// BenchmarkCAWTStep compares the streaming context-aware monitor as one
// session uses it — the one-lane view NewCAWOT builds, one hash-consed
// rule-stream push per cycle yielding alarm + margin + rule attribution
// — against the legacy eager per-rule evaluator (alarm only). The bar
// is streaming no slower than legacy while carrying strictly more
// information; the one-lane push must also stay close to the cost of
// the per-session engine it replaced.
func BenchmarkCAWTStep(b *testing.B) {
	rules := scs.TableI()
	// A deterministic observation stream covering safe and violating
	// contexts (same sequence for both monitors).
	rng := rand.New(rand.NewSource(9))
	obs := make([]Observation, 512)
	for i := range obs {
		obs[i] = Observation{
			Step: i, TimeMin: float64(i) * 5, CycleMin: 5,
			CGM:     40 + 300*rng.Float64(),
			BGPrime: -6 + 12*rng.Float64(),
			IOB:     -2 + 10*rng.Float64(), IOBPrime: -0.05 + 0.1*rng.Float64(),
			Action: trace.Action(1 + rng.Intn(4)),
		}
	}
	b.Run("streaming", func(b *testing.B) {
		m, err := NewCAWOT(rules, scs.Params{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		alarms := 0
		for i := 0; i < b.N; i++ {
			if m.Step(obs[i%len(obs)]).Alarm {
				alarms++
			}
		}
		_ = alarms
	})
	b.Run("legacy", func(b *testing.B) {
		m, err := NewContextAwareLegacy("CAWOT", rules, nil, scs.Params{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		alarms := 0
		for i := 0; i < b.N; i++ {
			if m.Step(obs[i%len(obs)]).Alarm {
				alarms++
			}
		}
		_ = alarms
	})
}
