package stl

import (
	"fmt"
	"testing"
)

// TraceMonitor is the pre-streaming online monitor: it appends every
// sample to a grow-forever trace and re-evaluates the formula over it
// on each Push, which is O(n) per step and unbounded memory for
// unbounded-window formulas.
//
// OnlineMonitor runs on the incremental streaming engine with O(1)
// amortized pushes and O(window) state; TraceMonitor is test code, the
// reference for TestStreamMatchesTraceMonitor and the baseline of
// BenchmarkSTLOnlinePush.
type TraceMonitor struct {
	formula Formula
	tr      *Trace

	violations int
	evaluated  int
}

// NewTraceMonitor builds the legacy trace-backed monitor.
func NewTraceMonitor(f Formula, dtMin float64) (*TraceMonitor, error) {
	if f == nil {
		return nil, fmt.Errorf("stl: nil formula")
	}
	if !PastOnly(f) {
		return nil, fmt.Errorf("stl: formula %q needs future knowledge; cannot monitor online", f)
	}
	tr, err := NewTrace(dtMin)
	if err != nil {
		return nil, err
	}
	return &TraceMonitor{formula: f, tr: tr}, nil
}

// Push appends one sample and returns satisfaction at the new sample.
func (m *TraceMonitor) Push(sample map[string]float64) (bool, error) {
	m.tr.Append(sample)
	sat, err := m.formula.Sat(m.tr, m.tr.Len()-1)
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
func (m *TraceMonitor) Robustness() (float64, error) {
	if m.tr.Len() == 0 {
		return 0, fmt.Errorf("stl: no samples pushed")
	}
	return m.formula.Robustness(m.tr, m.tr.Len()-1)
}

// Violations returns the running violation/evaluation counters.
func (m *TraceMonitor) Violations() (violations, evaluated int) {
	return m.violations, m.evaluated
}

// Len returns the number of samples seen.
func (m *TraceMonitor) Len() int { return m.tr.Len() }

// Reset clears the accumulated trace.
func (m *TraceMonitor) Reset() {
	tr, err := NewTrace(m.tr.Dt())
	if err != nil {
		// Dt was validated at construction; this cannot happen.
		panic(err)
	}
	m.tr = tr
	m.violations = 0
	m.evaluated = 0
}

// stlPusher is the shared surface of the streaming OnlineMonitor and
// the legacy trace-backed TraceMonitor.
type stlPusher interface {
	Push(sample map[string]float64) (bool, error)
	Len() int
	Reset()
}

// stlBenchFormula mixes unbounded and bounded past operators: the
// unbounded Historically forces the legacy monitor to rescan the whole
// trace on every push, while the streaming engine keeps O(1) state
// recursions and O(window) deques.
var stlBenchFormula = MustParse(
	"(H (BG > 10)) and ((BG > 150) S[0,180] (IOB < 0.5)) and O[0,60] (BG > 180)")

// benchSTLOnlinePush measures the per-push cost of an online STL
// monitor at session length ~n: the monitor is warmed with n pushes
// (untimed) and rewarmed whenever the session grows 25% past n, so
// ns/op is the marginal cost of one control cycle at that length.
func benchSTLOnlinePush(b *testing.B, m stlPusher, n int) {
	sample := make(map[string]float64, 2)
	push := func() {
		i := m.Len()
		sample["BG"] = 60 + float64((i*7919)%240)
		sample["IOB"] = float64((i*104729)%60)/10 - 1
		if _, err := m.Push(sample); err != nil {
			b.Fatal(err)
		}
	}
	warm := func() {
		m.Reset()
		for m.Len() < n {
			push()
		}
	}
	warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Len() > n+n/4 {
			b.StopTimer()
			warm()
			b.StartTimer()
		}
		push()
	}
}

// BenchmarkSTLOnlinePush is the before/after comparison of the
// streaming STL engine against the legacy grow-forever-trace monitor:
// streaming ns/op stays flat from 1k-push to 100k-push sessions, while
// the legacy monitor's per-push cost grows linearly with session length
// (its sizes stop at 8k because even warming it up is quadratic work).
func BenchmarkSTLOnlinePush(b *testing.B) {
	streaming := func(b *testing.B) stlPusher {
		m, err := NewOnlineMonitor(stlBenchFormula, 5)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	legacy := func(b *testing.B) stlPusher {
		m, err := NewTraceMonitor(stlBenchFormula, 5)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("streaming-%d", n), func(b *testing.B) {
			benchSTLOnlinePush(b, streaming(b), n)
		})
	}
	for _, n := range []int{1_000, 8_000} {
		b.Run(fmt.Sprintf("legacy-%d", n), func(b *testing.B) {
			benchSTLOnlinePush(b, legacy(b), n)
		})
	}
}
