package monitor

import (
	"fmt"
	"sort"

	"repro/internal/scs"
)

// BatchContextAware is the context-aware monitor (CAWT/CAWOT) evaluated
// across a whole fleet shard at once: one scs.BatchStreamSet holds every
// session lane's rule-stream state in [lanes]-wide vectors, and a
// single batched push per control cycle yields every lane's alarm,
// hazard, signed margin, and rule attribution. A lane's verdicts do not
// depend on the width (the differential tests compare an N-lane batch
// with N one-lane views), so a fleet can switch a shard between
// per-session and batched evaluation without changing a single trace —
// the same contract the batched ML monitors honor. NewCAWT and NewCAWOT
// return its one-lane view.
//
// It implements BatchMonitor for the fleet engine's per-shard batched
// path and exposes per-lane streaming verdicts for FromMonitor
// telemetry, preserving the one-evaluation invariant at shard scale.
type BatchContextAware struct {
	name       string
	rules      []scs.Rule
	thresholds scs.Thresholds
	params     scs.Params

	dt      float64
	streams *scs.BatchStreamSet
	width   int

	last      []scs.StreamVerdict
	lastOK    []bool
	lastFired [][]int

	states   []scs.State
	verdicts []scs.StreamVerdict
}

var _ BatchMonitor = (*BatchContextAware)(nil)

// NewBatchCAWT builds the batched context-aware monitor with learned
// thresholds.
func NewBatchCAWT(rules []scs.Rule, th scs.Thresholds, p scs.Params) (*BatchContextAware, error) {
	return newBatchContextAware("CAWT", rules, th, p)
}

// NewBatchCAWOT builds the batched context-aware baseline with default
// thresholds.
func NewBatchCAWOT(rules []scs.Rule, p scs.Params) (*BatchContextAware, error) {
	return newBatchContextAware("CAWOT", rules, scs.Defaults(rules), p)
}

func newBatchContextAware(name string, rules []scs.Rule, th scs.Thresholds, p scs.Params) (*BatchContextAware, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("monitor: %s needs at least one rule", name)
	}
	for _, r := range rules {
		if _, ok := th[r.ID]; !ok {
			return nil, fmt.Errorf("monitor: %s missing threshold for rule %d", name, r.ID)
		}
	}
	m := &BatchContextAware{
		name:       name,
		rules:      rules,
		thresholds: th,
		params:     p.WithDefaults(),
		dt:         DefaultCycleMin,
	}
	// Compile one lane now, so a rule set the engine rejects fails here
	// rather than in the first ResetLanes.
	var err error
	if m.streams, err = scs.NewBatchStreamSet(m.rules, m.thresholds, m.params, m.dt, 1); err != nil {
		return nil, fmt.Errorf("monitor: %s: %w", name, err)
	}
	m.allocLanes(1)
	return m, nil
}

// Name implements BatchMonitor.
func (m *BatchContextAware) Name() string { return m.name }

// rebuild compiles the batched rule streams at the current width and
// sampling period. Compilability was proven at construction inputs, so
// a failure here is an engine bug.
func (m *BatchContextAware) rebuild() {
	streams, err := scs.NewBatchStreamSet(m.rules, m.thresholds, m.params, m.dt, m.width)
	if err != nil {
		panic(fmt.Sprintf("monitor: %s batch compile at dt=%v width=%d: %v", m.name, m.dt, m.width, err))
	}
	m.streams = streams
}

// ResetLanes implements BatchMonitor: prepare n independent session
// lanes, clearing any per-lane rule-stream state. At an unchanged width
// it reuses the compiled streams and per-lane buffers.
func (m *BatchContextAware) ResetLanes(n int) {
	if n != m.width {
		m.allocLanes(n)
		m.rebuild()
		return
	}
	m.streams.Reset()
	for lane := range m.last {
		m.last[lane], m.lastOK[lane] = scs.StreamVerdict{}, false
		m.lastFired[lane] = m.lastFired[lane][:0]
	}
}

// allocLanes sizes the per-lane verdict state and push scratch for n
// lanes.
func (m *BatchContextAware) allocLanes(n int) {
	m.width = n
	m.last = make([]scs.StreamVerdict, n)
	m.lastOK = make([]bool, n)
	m.lastFired = make([][]int, n)
	m.states = make([]scs.State, 0, n)
	m.verdicts = make([]scs.StreamVerdict, n)
}

// ResetLane implements BatchMonitor: clear one lane's rule-stream state
// (a session restarting in place).
func (m *BatchContextAware) ResetLane(lane int) {
	m.streams.ResetLane(lane)
	m.last[lane] = scs.StreamVerdict{}
	m.lastOK[lane] = false
	m.lastFired[lane] = m.lastFired[lane][:0]
}

// StepBatch implements BatchMonitor: one batched rule-stream push
// evaluates every lane's cycle, and each lane's verdict is derived from
// its StreamVerdict. The predicted hazard is the class of the violated
// rules (H1 wins ties, being the acute hazard).
func (m *BatchContextAware) StepBatch(lanes []int, obs []Observation, out []Verdict) {
	n := len(obs)
	if n == 0 {
		return
	}
	if obs[0].CycleMin > 0 && obs[0].CycleMin != m.dt && m.streams.Len() == 0 {
		// Recompile at the observed sampling period before any state
		// accumulates. Table I bodies are sampling-period-free; this only
		// matters for rule sets with temporal windows.
		m.dt = obs[0].CycleMin
		m.rebuild()
	}
	m.states = m.states[:0]
	for _, o := range obs {
		m.states = append(m.states, scs.State{
			BG:       o.CGM,
			BGPrime:  o.BGPrime,
			IOB:      o.IOB,
			IOBPrime: o.IOBPrime,
			Action:   o.Action,
		})
	}
	if err := m.streams.PushLanes(lanes, m.states, m.verdicts[:n]); err != nil {
		// The push vocabulary and lane range are fixed by the engine; an
		// error here is an engine bug, not an input condition.
		panic(fmt.Sprintf("monitor: %s: %v", m.name, err))
	}
	for k := 0; k < n; k++ {
		v := m.verdicts[k]
		lane := lanes[k]
		m.last[lane], m.lastOK[lane] = v, true
		m.lastFired[lane] = append(m.lastFired[lane][:0], m.streams.Fired(k)...)
		if len(m.lastFired[lane]) > 1 {
			sort.Ints(m.lastFired[lane])
		}
		out[k] = Verdict{
			Alarm:      !v.Sat,
			Hazard:     v.Hazard,
			Margin:     v.Margin,
			Rule:       v.Rule,
			Confidence: marginConfidence(v.Margin),
		}
	}
}

// StreamVerdictLane returns the full streaming verdict of one lane's
// last step — the same single evaluation its Verdict was derived from —
// for FromMonitor telemetry. The boolean is false before the lane's
// first step (or after a lane reset).
func (m *BatchContextAware) StreamVerdictLane(lane int) (scs.StreamVerdict, bool) {
	return m.last[lane], m.lastOK[lane]
}

// FiredRulesLane returns the rule IDs that fired at one lane's last
// step, ascending.
func (m *BatchContextAware) FiredRulesLane(lane int) []int {
	out := make([]int, len(m.lastFired[lane]))
	copy(out, m.lastFired[lane])
	return out
}

// Thresholds returns the monitor's threshold table.
func (m *BatchContextAware) Thresholds() scs.Thresholds { return m.thresholds }
