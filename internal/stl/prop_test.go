package stl

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based tests of the robustness semantics: random bounded
// formulas over random signals, checked against the defining properties
// of quantitative STL rather than hand-picked cases.

// propVars are the signal names the generators draw from.
var propVars = []string{"x", "y"}

// propGrid is a small grid that thresholds and samples share: drawing
// part of both from it puts samples exactly at thresholds, where strict
// and non-strict comparisons differ and == and != atoms can flip, and
// makes equal samples that window extrema must tie-break.
var propGrid = []float64{-5, -2, 0, 1, 3}

// randPropValue draws a signal sample or threshold: from propGrid half
// the time, otherwise uniform on [-10, 10).
func randPropValue(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return propGrid[rng.Intn(len(propGrid))]
	}
	return -10 + 20*rng.Float64()
}

// randPropSeries builds an n-sample 2-variable trace.
func randPropSeries(rng *rand.Rand, n int) *Trace {
	tr, err := NewTrace(1)
	if err != nil {
		panic(err)
	}
	for _, v := range propVars {
		series := make([]float64, n)
		for i := range series {
			series[i] = randPropValue(rng)
		}
		if err := tr.Set(v, series); err != nil {
			panic(err)
		}
	}
	return tr
}

// randPropTrace builds a random 2-variable trace of 8 to 19 samples.
func randPropTrace(rng *rand.Rand) *Trace {
	return randPropSeries(rng, 8+rng.Intn(12))
}

// shiftTrace returns a copy with every sample of every variable moved by
// delta[var][i].
func shiftTrace(tr *Trace, shift func(v string, i int) float64) *Trace {
	out, err := NewTrace(tr.Dt())
	if err != nil {
		panic(err)
	}
	for _, v := range tr.Names() {
		series := make([]float64, tr.Len())
		for i := range series {
			val, err := tr.Value(v, i)
			if err != nil {
				panic(err)
			}
			series[i] = val + shift(v, i)
		}
		if err := out.Set(v, series); err != nil {
			panic(err)
		}
	}
	return out
}

func randBounds(rng *rand.Rand) Bounds {
	if rng.Intn(4) == 0 {
		return Unbounded
	}
	a := float64(rng.Intn(5))
	return Bounds{A: a, B: a + float64(rng.Intn(8))}
}

func randAtom(rng *rand.Rand, ops []CmpOp) *Atom {
	return &Atom{
		Var:       propVars[rng.Intn(len(propVars))],
		Op:        ops[rng.Intn(len(ops))],
		Threshold: randPropValue(rng),
	}
}

// randFormula generates an arbitrary bounded formula of the given depth.
func randFormula(rng *rand.Rand, depth int) Formula {
	if depth <= 0 {
		return randAtom(rng, []CmpOp{OpLT, OpLE, OpGT, OpGE})
	}
	switch rng.Intn(7) {
	case 0:
		return &Not{Child: randFormula(rng, depth-1)}
	case 1:
		return NewAnd(randFormula(rng, depth-1), randFormula(rng, depth-1))
	case 2:
		return NewOr(randFormula(rng, depth-1), randFormula(rng, depth-1))
	case 3:
		return &Implies{L: randFormula(rng, depth-1), R: randFormula(rng, depth-1)}
	case 4:
		return &Globally{Bounds: randBounds(rng), Child: randFormula(rng, depth-1)}
	case 5:
		return &Eventually{Bounds: randBounds(rng), Child: randFormula(rng, depth-1)}
	default:
		return &Until{Bounds: randBounds(rng), L: randFormula(rng, depth-1), R: randFormula(rng, depth-1)}
	}
}

// randMonotoneFormula generates a formula that is monotone in every
// signal: atoms are lower bounds only and the combinators (and/or/G/F/U)
// all preserve monotonicity.
func randMonotoneFormula(rng *rand.Rand, depth int) Formula {
	if depth <= 0 {
		return randAtom(rng, []CmpOp{OpGT, OpGE})
	}
	switch rng.Intn(5) {
	case 0:
		return NewAnd(randMonotoneFormula(rng, depth-1), randMonotoneFormula(rng, depth-1))
	case 1:
		return NewOr(randMonotoneFormula(rng, depth-1), randMonotoneFormula(rng, depth-1))
	case 2:
		return &Globally{Bounds: randBounds(rng), Child: randMonotoneFormula(rng, depth-1)}
	case 3:
		return &Eventually{Bounds: randBounds(rng), Child: randMonotoneFormula(rng, depth-1)}
	default:
		return &Until{Bounds: randBounds(rng), L: randMonotoneFormula(rng, depth-1), R: randMonotoneFormula(rng, depth-1)}
	}
}

// randPastBounds generates past-operator bounds: unbounded, aligned,
// and fractional ones (whose ceil/floor conversion can produce empty
// sample windows — an edge the streaming compiler must reproduce).
func randPastBounds(rng *rand.Rand) Bounds {
	switch rng.Intn(4) {
	case 0:
		return Unbounded
	case 1:
		a := float64(rng.Intn(4))
		return Bounds{A: a, B: a + float64(rng.Intn(6))}
	default:
		a := 4 * rng.Float64()
		return Bounds{A: a, B: a + 3*rng.Float64()}
	}
}

// randPastFormula generates a random past-only formula of the given
// depth, exercising every streamable operator.
func randPastFormula(rng *rand.Rand, depth int) Formula {
	if depth <= 0 {
		if rng.Intn(8) == 0 {
			return Const(rng.Intn(2) == 0)
		}
		return randAtom(rng, []CmpOp{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE})
	}
	switch rng.Intn(8) {
	case 0:
		return &Not{Child: randPastFormula(rng, depth-1)}
	case 1:
		return NewAnd(randPastFormula(rng, depth-1), randPastFormula(rng, depth-1))
	case 2:
		return NewOr(randPastFormula(rng, depth-1), randPastFormula(rng, depth-1))
	case 3:
		return &Implies{L: randPastFormula(rng, depth-1), R: randPastFormula(rng, depth-1)}
	case 4:
		return &Once{Bounds: randPastBounds(rng), Child: randPastFormula(rng, depth-1)}
	case 5:
		return &Historically{Bounds: randPastBounds(rng), Child: randPastFormula(rng, depth-1)}
	default:
		return &Since{Bounds: randPastBounds(rng), L: randPastFormula(rng, depth-1), R: randPastFormula(rng, depth-1)}
	}
}

// memoFormula is an offline oracle node that caches its Sat and
// Robustness per trace index, so nested windows cost one evaluation per
// node and index instead of one per path through the windows. Both are
// pure in (trace, index), so the cached values are the uncached ones.
type memoFormula struct {
	Formula        // the node, its children memoized in turn
	sat     []int8 // 0 not yet evaluated, 1 false, 2 true
	rob     []float64
	robSet  []bool
}

// memoize copies a past-only formula for offline evaluation on traces
// of n samples, caching every operator node; atoms and constants are
// shared as they are.
func memoize(f Formula, n int) Formula {
	m := func(c Formula) Formula { return memoize(c, n) }
	var node Formula
	switch x := f.(type) {
	case *Not:
		node = &Not{Child: m(x.Child)}
	case *And:
		node = &And{Children: memoizeAll(x.Children, n)}
	case *Or:
		node = &Or{Children: memoizeAll(x.Children, n)}
	case *Implies:
		node = &Implies{L: m(x.L), R: m(x.R)}
	case *Once:
		node = &Once{Bounds: x.Bounds, Child: m(x.Child)}
	case *Historically:
		node = &Historically{Bounds: x.Bounds, Child: m(x.Child)}
	case *Since:
		node = &Since{Bounds: x.Bounds, L: m(x.L), R: m(x.R)}
	default:
		return f
	}
	return &memoFormula{Formula: node, sat: make([]int8, n), rob: make([]float64, n), robSet: make([]bool, n)}
}

func memoizeAll(fs []Formula, n int) []Formula {
	out := make([]Formula, len(fs))
	for i, f := range fs {
		out[i] = memoize(f, n)
	}
	return out
}

func (m *memoFormula) Sat(tr *Trace, i int) (bool, error) {
	if i < 0 || i >= len(m.sat) {
		return m.Formula.Sat(tr, i)
	}
	if m.sat[i] != 0 {
		return m.sat[i] == 2, nil
	}
	s, err := m.Formula.Sat(tr, i)
	if err != nil {
		return s, err
	}
	m.sat[i] = 1
	if s {
		m.sat[i] = 2
	}
	return s, nil
}

func (m *memoFormula) Robustness(tr *Trace, i int) (float64, error) {
	if i < 0 || i >= len(m.rob) {
		return m.Formula.Robustness(tr, i)
	}
	if m.robSet[i] {
		return m.rob[i], nil
	}
	r, err := m.Formula.Robustness(tr, i)
	if err != nil {
		return r, err
	}
	m.rob[i], m.robSet[i] = r, true
	return r, nil
}

// streamTrace pushes every sample of tr through a fresh one-lane
// BatchStreamGroup for f, comparing verdict and robustness against the
// offline Sat/Robustness at every index, evaluated on a memoized copy
// of f. Equality is exact (==), not approximate: the streaming engine
// reorders min/max folds but never changes operands.
func streamTrace(t *testing.T, trial int, f Formula, tr *Trace) {
	t.Helper()
	oracle := memoize(f, tr.Len())
	g, err := NewBatchStreamGroup(tr.Dt(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(f); err != nil {
		t.Fatalf("trial %d: compile %s: %v", trial, f, err)
	}
	lane := []int{0}
	vals := make([]float64, len(g.Vars()))
	for i := 0; i < tr.Len(); i++ {
		for v, name := range g.Vars() {
			if vals[v], err = tr.Value(name, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.PushLanes(lane, vals); err != nil {
			t.Fatalf("trial %d: push %d of %s: %v", trial, i, f, err)
		}
		gotSat, gotRob := g.Sats(0)[0], g.Robs(0)[0]
		wantSat, err := oracle.Sat(tr, i)
		if err != nil {
			t.Fatalf("trial %d: offline sat of %s at %d: %v", trial, f, i, err)
		}
		wantRob, err := oracle.Robustness(tr, i)
		if err != nil {
			t.Fatalf("trial %d: offline robustness of %s at %d: %v", trial, f, i, err)
		}
		if gotSat != wantSat {
			t.Fatalf("trial %d: %s at %d: streaming sat=%v, offline %v", trial, f, i, gotSat, wantSat)
		}
		if gotRob != wantRob {
			t.Fatalf("trial %d: %s at %d: streaming rob=%v, offline %v", trial, f, i, gotRob, wantRob)
		}
	}
}

// TestPropStreamingMatchesOffline is the differential correctness
// contract of the streaming engine: on randomized past-only formulas
// and randomized signals, the incremental evaluation must produce
// verdicts and robustness exactly equal to the offline trace semantics
// at every index.
func TestPropStreamingMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 1200; trial++ {
		f := randPastFormula(rng, 1+rng.Intn(3))
		tr := randPropTrace(rng)
		streamTrace(t, trial, f, tr)
	}
}

// TestPropStreamingMatchesOfflineLongTraces repeats the differential
// check on traces long enough for every window to saturate, candidates
// to expire, and the deque compaction paths to run.
func TestPropStreamingMatchesOfflineLongTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 60; trial++ {
		f := randPastFormula(rng, 2+rng.Intn(2))
		streamTrace(t, trial, f, randPropSeries(rng, 200+rng.Intn(200)))
	}
}

// TestPropRobustnessSignAgreesWithSat: strictly positive robustness
// implies boolean satisfaction, strictly negative implies violation
// (soundness of the quantitative semantics).
func TestPropRobustnessSignAgreesWithSat(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const eps = 1e-9
	for trial := 0; trial < 1500; trial++ {
		f := randFormula(rng, 1+rng.Intn(3))
		tr := randPropTrace(rng)
		i := rng.Intn(tr.Len())
		rob, err := f.Robustness(tr, i)
		if err != nil {
			t.Fatalf("trial %d: robustness of %s: %v", trial, f, err)
		}
		sat, err := f.Sat(tr, i)
		if err != nil {
			t.Fatalf("trial %d: sat of %s: %v", trial, f, err)
		}
		if rob > eps && !sat {
			t.Fatalf("trial %d: %s has robustness %v at %d but Sat=false", trial, f, rob, i)
		}
		if rob < -eps && sat {
			t.Fatalf("trial %d: %s has robustness %v at %d but Sat=true", trial, f, rob, i)
		}
	}
}

// TestPropMonotoneShift: for formulas built from lower-bound atoms and
// monotone combinators, shifting every signal upward can only increase
// robustness, and satisfaction is preserved.
func TestPropMonotoneShift(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 800; trial++ {
		f := randMonotoneFormula(rng, 1+rng.Intn(3))
		tr := randPropTrace(rng)
		i := rng.Intn(tr.Len())
		d := 5 * rng.Float64()
		up := shiftTrace(tr, func(string, int) float64 { return d })

		r1, err := f.Robustness(tr, i)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := f.Robustness(up, i)
		if err != nil {
			t.Fatal(err)
		}
		if r2 < r1-1e-9 {
			t.Fatalf("trial %d: %s robustness dropped %v -> %v under +%v shift", trial, f, r1, r2, d)
		}
		sat1, err := f.Sat(tr, i)
		if err != nil {
			t.Fatal(err)
		}
		sat2, err := f.Sat(up, i)
		if err != nil {
			t.Fatal(err)
		}
		if sat1 && !sat2 {
			t.Fatalf("trial %d: %s satisfaction lost under upward shift", trial, f)
		}
	}
}

// TestPropLipschitz: every atom is a unit-coefficient bound, and min,
// max, and negation are 1-Lipschitz, so robustness can move by at most
// the sup-norm of the signal perturbation.
func TestPropLipschitz(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 800; trial++ {
		f := randFormula(rng, 1+rng.Intn(3))
		tr := randPropTrace(rng)
		i := rng.Intn(tr.Len())
		maxD := 3 * rng.Float64()
		perturbed := shiftTrace(tr, func(string, int) float64 {
			return maxD * (2*rng.Float64() - 1)
		})

		r1, err := f.Robustness(tr, i)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := f.Robustness(perturbed, i)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(r1, 0) || math.IsInf(r2, 0) {
			// Empty temporal windows yield ±Inf on both traces; the
			// Lipschitz bound is about finite robustness.
			continue
		}
		if diff := math.Abs(r2 - r1); diff > maxD+1e-9 {
			t.Fatalf("trial %d: %s robustness moved %v under perturbation ≤ %v", trial, f, diff, maxD)
		}
	}
}
