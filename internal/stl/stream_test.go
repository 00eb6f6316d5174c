package stl

import (
	"math"
	"testing"
)

// The per-session stream tests drive the batched engine at width 1,
// mostly through OnlineMonitor, its per-session form.

// pushLane pushes one sample (values in g.Vars order) into lane 0 of a
// one-lane group.
func pushLane(t *testing.T, g *BatchStreamGroup, vals ...float64) {
	t.Helper()
	if err := g.PushLanes([]int{0}, vals); err != nil {
		t.Fatal(err)
	}
}

// pushSample pushes one sample into an OnlineMonitor and returns its
// verdict and robustness.
func pushSample(t *testing.T, m *OnlineMonitor, sample map[string]float64) (bool, float64) {
	t.Helper()
	sat, err := m.Push(sample)
	if err != nil {
		t.Fatal(err)
	}
	rob, err := m.Robustness()
	if err != nil {
		t.Fatal(err)
	}
	return sat, rob
}

func newOnline(t *testing.T, f Formula, dt float64) *OnlineMonitor {
	t.Helper()
	m, err := NewOnlineMonitor(f, dt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStreamRejectsInvalid(t *testing.T) {
	if _, err := NewBatchStreamGroup(0, 1); err == nil {
		t.Error("zero dt should be rejected")
	}
	g, err := NewBatchStreamGroup(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(nil); err == nil {
		t.Error("nil formula should be rejected")
	}
	if _, err := g.Add(MustParse("F (x > 1)")); err == nil {
		t.Error("future formula should be rejected")
	}
	if _, err := g.Add(MustParse("G (x > 1)")); err == nil {
		t.Error("future formula should be rejected")
	}
	if _, err := g.Add(&Since{Bounds: Bounds{A: 3, B: 1}, L: Const(true), R: Const(true)}); err == nil {
		t.Error("invalid bounds should be rejected")
	}
	if g.Size() != 0 {
		t.Errorf("rejected formulas were added: size %d", g.Size())
	}
}

func TestStreamMissingVariable(t *testing.T) {
	m := newOnline(t, MustParse("O[0,30] (x > 1 and y < 2)"), 5)
	if _, err := m.Push(map[string]float64{"x": 3}); err == nil {
		t.Error("missing variable should error")
	}
	// The rejected sample must not have advanced any operator state:
	// a corrected push behaves as the first sample of the stream.
	if m.Len() != 0 {
		t.Errorf("Len after rejected push = %d, want 0", m.Len())
	}
	sat, rob := pushSample(t, m, map[string]float64{"x": 3, "y": 1})
	if !sat || rob != 1 {
		t.Errorf("corrected push: sat=%v rob=%v, want true/1 (state was poisoned)", sat, rob)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestStreamOnceBounded(t *testing.T) {
	// O[5,10] (x > 0) at dt=5: sample offsets [1,2].
	m := newOnline(t, MustParse("O[5,10] (x > 0)"), 5)
	xs := []float64{1, -1, -1, -1, 1, -1, -1}
	want := []bool{false, true, true, false, false, true, true}
	for i, x := range xs {
		if sat, _ := pushSample(t, m, map[string]float64{"x": x}); sat != want[i] {
			t.Errorf("step %d: sat=%v, want %v", i, sat, want[i])
		}
	}
}

func TestStreamEmptyFractionalWindow(t *testing.T) {
	// [1.2,1.4] minutes at dt=1 has no sample offsets: Once is always
	// false (-Inf), Historically always true (+Inf) — exactly the
	// offline empty-window semantics.
	once := newOnline(t, &Once{Bounds: Bounds{A: 1.2, B: 1.4}, Child: MustParse("x > 0")}, 1)
	hist := newOnline(t, &Historically{Bounds: Bounds{A: 1.2, B: 1.4}, Child: MustParse("x > 0")}, 1)
	since := newOnline(t, &Since{Bounds: Bounds{A: 1.2, B: 1.4}, L: MustParse("x > 0"), R: MustParse("x > 0")}, 1)
	for i := 0; i < 5; i++ {
		sample := map[string]float64{"x": 1}
		if sat, rob := pushSample(t, once, sample); sat || !math.IsInf(rob, -1) {
			t.Errorf("once over empty window: sat=%v rob=%v", sat, rob)
		}
		if sat, rob := pushSample(t, hist, sample); !sat || !math.IsInf(rob, 1) {
			t.Errorf("historically over empty window: sat=%v rob=%v", sat, rob)
		}
		if sat, rob := pushSample(t, since, sample); sat || !math.IsInf(rob, -1) {
			t.Errorf("since over empty window: sat=%v rob=%v", sat, rob)
		}
	}
}

func TestStreamReset(t *testing.T) {
	m := newOnline(t, MustParse("(x > 5) S (y == 1)"), 1)
	pushSample(t, m, map[string]float64{"x": 9, "y": 1})
	if sat, _ := pushSample(t, m, map[string]float64{"x": 9, "y": 0}); !sat {
		t.Fatal("since should hold before reset")
	}
	m.Reset()
	if m.Len() != 0 {
		t.Errorf("Len after reset = %d", m.Len())
	}
	if _, err := m.Robustness(); err == nil {
		t.Error("Robustness after reset should error")
	}
	// The witness from before the reset must be gone.
	if sat, _ := pushSample(t, m, map[string]float64{"x": 9, "y": 0}); sat {
		t.Error("since held across Reset: stale operator state")
	}
}

// boundedStateFormula mixes every stateful operator shape: bounded and
// unbounded windows, nested temporal operators, and Since with a
// nonzero lower bound.
const boundedStateFormula = "(H[0,120] (x > 0)) and ((x > 2) S (y < 1)) " +
	"and O[15,45] (y > 3) and ((y < 8) S[10,90] (O[0,30] (x > 5)))"

// TestStreamBoundedStateLongSession is the continuous-serving-mode
// memory contract: after the windows saturate, pushing 100x more
// samples must not grow operator state at all, and the steady-state
// push path must not allocate.
func TestStreamBoundedStateLongSession(t *testing.T) {
	m, err := NewOnlineMonitor(MustParse(boundedStateFormula), 5)
	if err != nil {
		t.Fatal(err)
	}
	sample := make(map[string]float64, 2)
	push := func(i int) {
		sample["x"] = float64((i*7919)%23) - 10
		sample["y"] = float64((i*104729)%19) - 9
		if _, err := m.Push(sample); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1_000; i++ {
		push(i)
	}
	stateAt1k := m.StateSamples()
	allocsAt1k := testing.AllocsPerRun(200, func() { push(m.Len()) })

	for m.Len() < 100_000 {
		push(m.Len())
	}
	stateAt100k := m.StateSamples()
	allocsAt100k := testing.AllocsPerRun(200, func() { push(m.Len()) })

	// Deque occupancy is data-dependent within the window bound, so the
	// invariant is a cap, not exact equality: the formula's widest
	// window is 120 min = 24 samples and a handful of operator cores
	// each hold at most O(window) entries — after 100x more pushes the
	// state must still sit under that same small constant.
	const stateCap = 400
	if stateAt1k > stateCap || stateAt100k > stateCap {
		t.Errorf("state is not O(window): %d samples at 1k pushes, %d at 100k",
			stateAt1k, stateAt100k)
	}
	if allocsAt1k != 0 || allocsAt100k != 0 {
		t.Errorf("steady-state push allocates: %.1f allocs/push at 1k, %.1f at 100k",
			allocsAt1k, allocsAt100k)
	}
}

// TestStreamMatchesTraceMonitor pins the rewired OnlineMonitor to the
// legacy trace-backed monitor on a shared sample stream.
func TestStreamMatchesTraceMonitor(t *testing.T) {
	f := MustParse("((x > 2) S[0,30] (y < 1)) and H[0,20] (x > -8)")
	stream, err := NewOnlineMonitor(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := NewTraceMonitor(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sample := map[string]float64{
			"x": float64((i*31)%17) - 8,
			"y": float64((i*17)%13) - 6,
		}
		gotSat, err := stream.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		wantSat, err := legacy.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if gotSat != wantSat {
			t.Fatalf("step %d: streaming sat=%v, legacy %v", i, gotSat, wantSat)
		}
		gotRob, err := stream.Robustness()
		if err != nil {
			t.Fatal(err)
		}
		wantRob, err := legacy.Robustness()
		if err != nil {
			t.Fatal(err)
		}
		if gotRob != wantRob {
			t.Fatalf("step %d: streaming rob=%v, legacy %v", i, gotRob, wantRob)
		}
	}
	gv, ge := stream.Violations()
	wv, we := legacy.Violations()
	if gv != wv || ge != we {
		t.Errorf("violations %d/%d, legacy %d/%d", gv, ge, wv, we)
	}
}

// groupFormulas is a formula family with heavy subformula overlap: the
// same bounded windows and Since terms appear across members, so the
// hash-consed group must hold their operator state exactly once.
var groupFormulas = []string{
	"(O[0,60] (x > 5)) and (y < 2)",
	"(O[0,60] (x > 5)) and (y > -4)",
	"not (O[0,60] (x > 5))",
	"((x > 2) S[0,45] (y < 1)) and (O[0,60] (x > 5))",
	"((x > 2) S[0,45] (y < 1)) or (H[0,30] (y < 8))",
	"H[0,30] (y < 8)",
}

// newGroupAndSolo compiles groupFormulas into one one-lane group and
// into one OnlineMonitor each.
func newGroupAndSolo(t *testing.T) (*BatchStreamGroup, []*OnlineMonitor) {
	t.Helper()
	g, err := NewBatchStreamGroup(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var solo []*OnlineMonitor
	for _, src := range groupFormulas {
		f := MustParse(src)
		idx, err := g.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if idx != len(solo) {
			t.Fatalf("Add returned %d, want %d", idx, len(solo))
		}
		solo = append(solo, newOnline(t, f, 5))
	}
	return g, solo
}

// groupVals lays a sample out in the group's variable order.
func groupVals(g *BatchStreamGroup, sample map[string]float64) []float64 {
	vals := make([]float64, len(g.Vars()))
	for i, name := range g.Vars() {
		vals[i] = sample[name]
	}
	return vals
}

// TestStreamGroupMatchesIndividualStreams: hash-consing must not change
// a single verdict or margin — every group member must equal its own
// standalone stream at every pushed sample.
func TestStreamGroupMatchesIndividualStreams(t *testing.T) {
	g, solo := newGroupAndSolo(t)
	for i := 0; i < 500; i++ {
		sample := map[string]float64{
			"x": float64((i*7919)%23) - 10,
			"y": float64((i*104729)%19) - 9,
		}
		pushLane(t, g, groupVals(g, sample)...)
		for k, s := range solo {
			wantSat, wantRob := pushSample(t, s, sample)
			if gotSat, gotRob := g.Sats(k)[0], g.Robs(k)[0]; gotSat != wantSat || gotRob != wantRob {
				t.Fatalf("step %d formula %d: group (%v, %v), solo (%v, %v)",
					i, k, gotSat, gotRob, wantSat, wantRob)
			}
		}
	}
}

// TestStreamGroupSharesState: the group's total buffered state must be
// well below the sum of the standalone streams' — identical windowed
// subformulas hold one stateful node (ROADMAP "Multi-formula sharing").
func TestStreamGroupSharesState(t *testing.T) {
	g, solo := newGroupAndSolo(t)
	sample := make(map[string]float64, 2)
	var vals []float64
	for i := 0; i < 200; i++ { // saturate every window
		sample["x"] = float64((i*31)%17) - 8
		sample["y"] = float64((i*17)%13) - 6
		vals = groupVals(g, sample)
		pushLane(t, g, vals...)
		for _, s := range solo {
			pushSample(t, s, sample)
		}
	}
	soloTotal := 0
	for _, s := range solo {
		soloTotal += s.StateSamples()
	}
	shared := g.StateSamples()
	if shared <= 0 {
		t.Fatal("group reports no state despite windowed formulas")
	}
	// O[0,60](x>5) appears in 4 formulas, (x>2)S[0,45](y<1) in 2,
	// H[0,30](y<8) in 2: the dedup factor must be clearly visible, not
	// marginal.
	if shared*3 > soloTotal*2 {
		t.Errorf("hash-consing saved too little state: group %d vs solo sum %d", shared, soloTotal)
	}
	// And the group must stay allocation-free and bounded like a single
	// stream.
	lane := []int{0}
	allocs := testing.AllocsPerRun(200, func() {
		if err := g.PushLanes(lane, vals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("group push allocates %.1f allocs", allocs)
	}
}

// TestStreamGroupValidation covers the one-lane group's error paths.
func TestStreamGroupValidation(t *testing.T) {
	if _, err := NewBatchStreamGroup(0, 1); err == nil {
		t.Error("zero dt should be rejected")
	}
	g, err := NewBatchStreamGroup(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(nil); err == nil {
		t.Error("nil formula should be rejected")
	}
	if _, err := g.Add(MustParse("F (x > 1)")); err == nil {
		t.Error("future formula should be rejected")
	}
	if _, err := g.Add(MustParse("x > 1")); err != nil {
		t.Fatal(err)
	}
	if err := g.PushLanes([]int{0}, []float64{1, 2}); err == nil {
		t.Error("wrong vector width should error")
	}
	if err := g.PushLanes([]int{1}, []float64{1}); err == nil {
		t.Error("lane beyond the width should error")
	}
	pushLane(t, g, 2)
	if _, err := g.Add(MustParse("x > 2")); err == nil {
		t.Error("Add after Push should be rejected")
	}
}

// TestStreamGroupReset: reset must clear shared operator state exactly
// once and leave the group replayable from scratch.
func TestStreamGroupReset(t *testing.T) {
	g, err := NewBatchStreamGroup(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two formulas sharing one Since witness.
	if _, err := g.Add(MustParse("(x > 5) S (y == 1)")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(MustParse("not ((x > 5) S (y == 1))")); err != nil {
		t.Fatal(err)
	}
	pushLane(t, g, 9, 1) // x, y
	if !g.Sats(0)[0] || g.Sats(1)[0] {
		t.Fatal("since should hold before reset")
	}
	g.Reset()
	if g.Len() != 0 || g.LaneLen(0) != 0 {
		t.Errorf("Len after reset = %d, lane %d", g.Len(), g.LaneLen(0))
	}
	if len(g.Sats(0)) != 0 {
		t.Errorf("Sats after reset = %v, want empty", g.Sats(0))
	}
	pushLane(t, g, 9, 0)
	if g.Sats(0)[0] {
		t.Error("since held across Reset: stale shared operator state")
	}
}
