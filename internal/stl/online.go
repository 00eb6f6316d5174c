package stl

import "fmt"

// PastOnly reports whether the formula can be evaluated online at the
// newest sample without future knowledge, i.e. it contains no
// future-time temporal operators (G, F, U).
func PastOnly(f Formula) bool {
	switch n := f.(type) {
	case *Atom, Const, nil:
		return true
	case *Not:
		return PastOnly(n.Child)
	case *And:
		for _, c := range n.Children {
			if !PastOnly(c) {
				return false
			}
		}
		return true
	case *Or:
		for _, c := range n.Children {
			if !PastOnly(c) {
				return false
			}
		}
		return true
	case *Implies:
		return PastOnly(n.L) && PastOnly(n.R)
	case *Globally, *Eventually, *Until:
		return false
	case *Once:
		return PastOnly(n.Child)
	case *Historically:
		return PastOnly(n.Child)
	case *Since:
		return PastOnly(n.L) && PastOnly(n.R)
	default:
		return false
	}
}

// OnlineMonitor incrementally evaluates a past-time-safe formula one
// sample per control cycle. This is the run-time form of the paper's
// safety-context rules: checking "G[t0,te] body" online reduces to
// evaluating the body at each new sample.
//
// The monitor is a one-lane BatchStreamGroup: every Push costs O(1)
// amortized and retained state is bounded by the formula's window
// lengths, never by session length, so a monitor can stay attached to
// a continuous serving session indefinitely. Verdicts and robustness
// are exactly those of evaluating the formula offline on the full
// recorded trace at each index.
//
// Every variable the formula references must be present in every pushed
// sample; a missing variable is an error (the offline trace semantics
// backfill NaN, which silently poisons windowed extrema — a streaming
// hazard monitor should fail loudly instead).
type OnlineMonitor struct {
	group *BatchStreamGroup
	vals  []float64 // the pushed sample in group.Vars order
	lane  [1]int

	violations int
	evaluated  int
}

// NewOnlineMonitor builds a monitor for the formula at sampling period
// dtMin. The formula must be past-only.
func NewOnlineMonitor(f Formula, dtMin float64) (*OnlineMonitor, error) {
	g, err := NewBatchStreamGroup(dtMin, 1)
	if err != nil {
		return nil, err
	}
	if _, err := g.Add(f); err != nil {
		return nil, err
	}
	return &OnlineMonitor{group: g, vals: make([]float64, len(g.Vars()))}, nil
}

// Push appends one sample and returns satisfaction at the new sample.
// A sample missing a referenced variable is rejected before any
// operator state advances, so the caller may push a corrected sample.
//
//fleetvet:noalloc
func (m *OnlineMonitor) Push(sample map[string]float64) (bool, error) {
	for i, name := range m.group.Vars() {
		v, ok := sample[name]
		if !ok {
			return false, fmt.Errorf("stl: unknown variable %q", name)
		}
		m.vals[i] = v
	}
	if err := m.group.PushLanes(m.lane[:], m.vals); err != nil {
		return false, err
	}
	sat := m.group.Sats(0)[0]
	m.evaluated++
	if !sat {
		m.violations++
	}
	return sat, nil
}

// Robustness returns the quantitative margin at the newest sample.
func (m *OnlineMonitor) Robustness() (float64, error) {
	if m.Len() == 0 {
		return 0, fmt.Errorf("stl: no samples pushed")
	}
	return m.group.Robs(0)[0], nil
}

// Violations returns how many pushed samples violated the formula, and
// how many were evaluated — the running view of "G[t0,te] body".
func (m *OnlineMonitor) Violations() (violations, evaluated int) {
	return m.violations, m.evaluated
}

// Len returns the number of samples seen.
func (m *OnlineMonitor) Len() int { return m.group.LaneLen(0) }

// StateSamples returns the number of per-sample entries currently
// buffered by the monitor's operator windows — bounded by the formula's
// windows, independent of Len.
func (m *OnlineMonitor) StateSamples() int { return m.group.StateSamples() }

// Reset clears all operator state.
func (m *OnlineMonitor) Reset() {
	m.group.Reset()
	m.violations = 0
	m.evaluated = 0
}
