package monitor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/scs"
)

// DefaultCycleMin is the control-cycle length the rule streams compile
// against before the first observation arrives. Table I bodies are pure
// state predicates, so the sampling period only matters for rule sets
// with temporal windows; those recompile on the first observed cycle
// length if it differs.
const DefaultCycleMin = 5

// ContextAware is the rule-based safety monitor of Section III: it
// evaluates the Table I Safety Context Specification online each control
// cycle and alarms when the issued action is unsafe in the current
// context. With data-driven thresholds it is the paper's CAWT monitor;
// with the generic defaults it is the CAWOT baseline.
//
// The rules evaluate through one incremental scs.StreamSet — a
// hash-consed streaming STL group in which shared subformulas evaluate
// once per cycle — and the alarm, the signed robustness margin, and the
// arg-min rule attribution of every verdict all come from that single
// evaluation (no second per-cycle pass; the differential tests pin the
// verdicts against an eager per-rule reference evaluator).
type ContextAware struct {
	name       string
	rules      []scs.Rule
	thresholds scs.Thresholds
	params     scs.Params

	dt      float64
	streams *scs.StreamSet
	last    scs.StreamVerdict
	lastOK  bool

	lastFired []int // rule IDs fired at the last step (diagnostics)
}

var _ Monitor = (*ContextAware)(nil)

// NewCAWT builds the context-aware monitor with learned thresholds.
func NewCAWT(rules []scs.Rule, th scs.Thresholds, p scs.Params) (*ContextAware, error) {
	return newContextAware("CAWT", rules, th, p)
}

// NewCAWOT builds the context-aware baseline with default thresholds.
func NewCAWOT(rules []scs.Rule, p scs.Params) (*ContextAware, error) {
	return newContextAware("CAWOT", rules, scs.Defaults(rules), p)
}

func newContextAware(name string, rules []scs.Rule, th scs.Thresholds, p scs.Params) (*ContextAware, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("monitor: %s needs at least one rule", name)
	}
	for _, r := range rules {
		if _, ok := th[r.ID]; !ok {
			return nil, fmt.Errorf("monitor: %s missing threshold for rule %d", name, r.ID)
		}
	}
	p = p.WithDefaults()
	streams, err := scs.NewStreamSet(rules, th, p, DefaultCycleMin)
	if err != nil {
		return nil, fmt.Errorf("monitor: %s: %w", name, err)
	}
	return &ContextAware{
		name:       name,
		rules:      rules,
		thresholds: th,
		params:     p,
		dt:         DefaultCycleMin,
		streams:    streams,
	}, nil
}

// Name implements Monitor.
func (m *ContextAware) Name() string { return m.name }

// Reset implements Monitor.
func (m *ContextAware) Reset() {
	m.streams.Reset()
	m.last = scs.StreamVerdict{}
	m.lastOK = false
	m.lastFired = m.lastFired[:0]
}

// Step implements Monitor: push the cycle's context state through the
// streaming rule set and read alarm, hazard, margin, and rule
// attribution from the one incremental evaluation. The predicted hazard
// is the class of the violated rules (H1 wins ties, being the acute
// hazard).
func (m *ContextAware) Step(obs Observation) Verdict {
	if obs.CycleMin > 0 && obs.CycleMin != m.dt && m.streams.Len() == 0 {
		// Recompile at the observed sampling period before any state
		// accumulates. Table I bodies are sampling-period-free; this only
		// matters for rule sets with temporal windows.
		streams, err := scs.NewStreamSet(m.rules, m.thresholds, m.params, obs.CycleMin)
		if err != nil {
			// The rule set compiled at DefaultCycleMin; a positive cycle
			// length cannot change compilability.
			panic(fmt.Sprintf("monitor: %s recompile at dt=%v: %v", m.name, obs.CycleMin, err))
		}
		m.streams, m.dt = streams, obs.CycleMin
	}
	v, err := m.streams.Push(scs.State{
		BG:       obs.CGM,
		BGPrime:  obs.BGPrime,
		IOB:      obs.IOB,
		IOBPrime: obs.IOBPrime,
		Action:   obs.Action,
	})
	if err != nil {
		// The push vocabulary is fixed at construction; an error here is
		// an engine bug, not an input condition.
		panic(fmt.Sprintf("monitor: %s: %v", m.name, err))
	}
	m.last, m.lastOK = v, true
	m.lastFired = append(m.lastFired[:0], m.streams.Fired()...)
	if len(m.lastFired) > 1 {
		sort.Ints(m.lastFired)
	}
	return Verdict{
		Alarm:      !v.Sat,
		Hazard:     v.Hazard,
		Margin:     v.Margin,
		Rule:       v.Rule,
		Confidence: marginConfidence(v.Margin),
	}
}

// marginConfidence squashes a signed robustness margin into [0, 1):
// verdicts at the rule boundary carry no confidence, deep margins
// saturate toward 1.
func marginConfidence(margin float64) float64 {
	m := math.Abs(margin)
	if math.IsInf(m, 1) {
		return 1
	}
	return m / (1 + m)
}

// StreamVerdict returns the full streaming verdict of the last step —
// the same single evaluation the Verdict was derived from — for
// telemetry consumers that want the raw STL minimum alongside the
// signed margin. The boolean is false before the first step.
func (m *ContextAware) StreamVerdict() (scs.StreamVerdict, bool) {
	return m.last, m.lastOK
}

// FiredRules returns the rule IDs that fired at the last step.
func (m *ContextAware) FiredRules() []int {
	out := make([]int, len(m.lastFired))
	copy(out, m.lastFired)
	return out
}

// Thresholds returns the monitor's threshold table.
func (m *ContextAware) Thresholds() scs.Thresholds { return m.thresholds }
