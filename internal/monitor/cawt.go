package monitor

import (
	"math"

	"repro/internal/scs"
)

// DefaultCycleMin is the control-cycle length the rule streams compile
// against before the first observation arrives. Table I bodies are pure
// state predicates, so the sampling period only matters for rule sets
// with temporal windows; those recompile on the first observed cycle
// length if it differs.
const DefaultCycleMin = 5

// ContextAwareLane is the rule-based safety monitor of Section III for
// one session: it evaluates the Table I Safety Context Specification
// online each control cycle and alarms when the issued action is unsafe
// in the current context. With data-driven thresholds it is the paper's
// CAWT monitor; with the generic defaults it is the CAWOT baseline.
//
// It is a one-lane view of BatchContextAware, so per-session and
// shard-batched evaluation run the same rule kernel. Alarm, signed
// robustness margin, and arg-min rule attribution of every verdict all
// come from the lane's single rule-stream evaluation (no second
// per-cycle pass; the differential tests pin the verdicts against an
// eager per-rule reference evaluator). Beyond Lane it exposes that
// evaluation as StreamVerdict, which is what fleet telemetry's
// FromMonitor mode reads.
type ContextAwareLane struct {
	*Lane
	m *BatchContextAware
}

// NewCAWT builds the context-aware monitor with learned thresholds.
func NewCAWT(rules []scs.Rule, th scs.Thresholds, p scs.Params) (*ContextAwareLane, error) {
	return newContextAwareLane(NewBatchCAWT(rules, th, p))
}

// NewCAWOT builds the context-aware baseline with default thresholds.
func NewCAWOT(rules []scs.Rule, p scs.Params) (*ContextAwareLane, error) {
	return newContextAwareLane(NewBatchCAWOT(rules, p))
}

func newContextAwareLane(m *BatchContextAware, err error) (*ContextAwareLane, error) {
	l, err := laneOf(m, err)
	if err != nil {
		return nil, err
	}
	return &ContextAwareLane{Lane: l, m: m}, nil
}

// StreamVerdict returns the full streaming verdict of the last step —
// the same single evaluation the Verdict was derived from — for
// telemetry consumers that want the raw STL minimum alongside the
// signed margin. The boolean is false before the first step.
func (c *ContextAwareLane) StreamVerdict() (scs.StreamVerdict, bool) {
	return c.m.StreamVerdictLane(0)
}

// FiredRules returns the rule IDs that fired at the last step,
// ascending.
func (c *ContextAwareLane) FiredRules() []int { return c.m.FiredRulesLane(0) }

// Thresholds returns the monitor's threshold table.
func (c *ContextAwareLane) Thresholds() scs.Thresholds { return c.m.Thresholds() }

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
