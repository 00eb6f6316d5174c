package stl

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
// The monitor runs on the incremental streaming engine (see Stream):
// every Push costs O(1) amortized and retained state is bounded by the
// formula's window lengths, never by session length, so a monitor can
// stay attached to a continuous serving session indefinitely. Verdicts
// and robustness are exactly those of evaluating the formula offline on
// the full recorded trace at each index.
type OnlineMonitor struct {
	stream *Stream

	violations int
	evaluated  int
}

// NewOnlineMonitor builds a monitor for the formula at sampling period
// dtMin. The formula must be past-only.
func NewOnlineMonitor(f Formula, dtMin float64) (*OnlineMonitor, error) {
	s, err := NewStream(f, dtMin)
	if err != nil {
		return nil, err
	}
	return &OnlineMonitor{stream: s}, nil
}

// Push appends one sample and returns satisfaction at the new sample.
// Every variable the formula references must be present in the sample.
func (m *OnlineMonitor) Push(sample map[string]float64) (bool, error) {
	sat, _, err := m.stream.Push(sample)
	if err != nil {
		return false, err
	}
	m.evaluated++
	if !sat {
		m.violations++
	}
	return sat, nil
}

// Robustness returns the quantitative margin at the newest sample.
func (m *OnlineMonitor) Robustness() (float64, error) {
	_, rob, err := m.stream.Last()
	return rob, err
}

// Violations returns how many pushed samples violated the formula, and
// how many were evaluated — the running view of "G[t0,te] body".
func (m *OnlineMonitor) Violations() (violations, evaluated int) {
	return m.violations, m.evaluated
}

// Len returns the number of samples seen.
func (m *OnlineMonitor) Len() int { return m.stream.Len() }

// StateSamples returns the number of per-sample entries currently
// buffered by the monitor's operator windows — bounded by the formula's
// windows, independent of Len.
func (m *OnlineMonitor) StateSamples() int { return m.stream.StateSamples() }

// Reset clears all operator state.
func (m *OnlineMonitor) Reset() {
	m.stream.Reset()
	m.violations = 0
	m.evaluated = 0
}
