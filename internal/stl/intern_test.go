package stl

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stringKeyedOrder replays the compiler as it was when it keyed its
// hash-consing cache on String: the memo-wrapped (stateful) subformulas
// in creation order, by rendering, and the variable table's order.
func stringKeyedOrder(fs []Formula) (memos, vars []string) {
	seen := make(map[string]bool)
	addVar := func(v string) {
		if !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	}
	var compile func(f Formula)
	compile = func(f Formula) {
		key := f.String()
		if seen[key] {
			return
		}
		switch n := f.(type) {
		case *Atom:
			addVar(n.Var)
		case *Not:
			compile(n.Child)
		case *And:
			if atoms, ok := flatOrderAtoms(n.Children); ok {
				for _, a := range atoms {
					addVar(a.Var)
				}
			} else {
				for _, c := range n.Children {
					compile(c)
				}
			}
		case *Or:
			for _, c := range n.Children {
				compile(c)
			}
		case *Implies:
			compile(n.L)
			compile(n.R)
		case *Once:
			compile(n.Child)
		case *Historically:
			compile(n.Child)
		case *Since:
			compile(n.L)
			compile(n.R)
		}
		if hasState(f) {
			memos = append(memos, key)
		}
		seen[key] = true
	}
	for _, f := range fs {
		compile(f)
	}
	return memos, vars
}

// standaloneChildren lists the subformulas the compiler compiles on
// their own: every child except the atoms of a fused conjunction.
func standaloneChildren(f Formula) []Formula {
	switch n := f.(type) {
	case *Not:
		return []Formula{n.Child}
	case *And:
		if _, ok := flatOrderAtoms(n.Children); ok {
			return nil
		}
		return n.Children
	case *Or:
		return n.Children
	case *Implies:
		return []Formula{n.L, n.R}
	case *Once:
		return []Formula{n.Child}
	case *Historically:
		return []Formula{n.Child}
	case *Since:
		return []Formula{n.L, n.R}
	}
	return nil
}

// checkInternMatchesString compiles a formula set and checks the DAG
// against the String-keyed compiler it replaced: two subformulas share
// a node exactly when their renderings are equal, the stateful nodes
// (whose order is the snapshot layout) were created in the same order,
// and the variable table is in the same order.
func checkInternMatchesString(t *testing.T, fs []Formula) {
	t.Helper()
	c := newBatchCompiler(1, 1)
	for _, f := range fs {
		if _, _, err := c.compile(f); err != nil {
			t.Fatalf("compile %s: %v", f, err)
		}
	}
	ids, memos := len(c.ids), len(c.memos)
	byString := make(map[string]batchNode)
	byNode := make(map[batchNode]string)
	var walk func(f Formula)
	walk = func(f Formula) {
		n, _, err := c.compile(f) // compiled already, so a lookup
		if err != nil {
			t.Fatalf("recompile %s: %v", f, err)
		}
		s := f.String()
		if prev, ok := byString[s]; ok && prev != n {
			t.Fatalf("%q compiled to two nodes", s)
		}
		if prev, ok := byNode[n]; ok && prev != s {
			t.Fatalf("%q and %q share a node", prev, s)
		}
		byString[s], byNode[n] = n, s
		for _, child := range standaloneChildren(f) {
			walk(child)
		}
	}
	for _, f := range fs {
		walk(f)
	}
	if len(c.ids) != ids || len(c.memos) != memos {
		t.Fatalf("recompiling the set interned %d keys and %d memos more", len(c.ids)-ids, len(c.memos)-memos)
	}
	wantMemos, wantVars := stringKeyedOrder(fs)
	gotMemos := make([]string, len(c.memos))
	for i, m := range c.memos {
		gotMemos[i] = byNode[m]
	}
	if !slices.Equal(gotMemos, wantMemos) {
		t.Fatalf("stateful nodes in order\n%q\nwant\n%q", gotMemos, wantMemos)
	}
	if !slices.Equal(c.vars, wantVars) {
		t.Fatalf("variables %q, want %q", c.vars, wantVars)
	}
}

// internVocab is one trial's atoms and windows. It is small, so
// subformulas recur across a formula set, and it holds twins whose
// renderings collide or differ only at the edges of String: NaNs with
// different payloads render alike, while -0 and +0 do not; a [0, inf)
// window renders as no bounds whatever the sign of its zero, while a
// finite window's -0 shows.
type internVocab struct {
	atoms  []*Atom
	bounds []Bounds
}

var (
	negZero          = math.Copysign(0, -1)
	internThresholds = []float64{negZero, 0, 1, 2.5, math.Inf(1), math.Inf(-1), math.NaN()}
	internBounds     = [][]Bounds{
		{Unbounded, {A: negZero, B: math.Inf(1)}},
		{{A: 0, B: 2}, {A: negZero, B: 2}},
		{{A: 1, B: 3}}, {{A: 0.5, B: 2.5}}, {{A: 1, B: math.Inf(1)}},
	}
)

func newInternVocab(rng *rand.Rand) internVocab {
	var v internVocab
	for len(v.atoms) < 4 {
		a := &Atom{
			Var:       []string{"x", "y", "z"}[rng.Intn(3)],
			Op:        CmpOp(1 + rng.Intn(6)),
			Threshold: internThresholds[rng.Intn(len(internThresholds))],
		}
		v.atoms = append(v.atoms, a)
		twin := *a
		switch {
		case math.IsNaN(a.Threshold):
			twin.Threshold = math.Float64frombits(math.Float64bits(a.Threshold) ^ 0x123)
		case a.Threshold == 0:
			twin.Threshold = -a.Threshold
		default:
			continue
		}
		v.atoms = append(v.atoms, &twin)
	}
	for range 2 {
		v.bounds = append(v.bounds, internBounds[rng.Intn(len(internBounds))]...)
	}
	return v
}

// formula draws a past-only formula over the vocabulary, with one- to
// three-child conjunctions and disjunctions (a conjunction of ordering
// atoms compiles fused).
func (v internVocab) formula(rng *rand.Rand, depth int) Formula {
	if depth <= 0 || rng.Intn(4) == 0 {
		if rng.Intn(10) == 0 {
			return Const(rng.Intn(2) == 0)
		}
		return v.atoms[rng.Intn(len(v.atoms))]
	}
	sub := func() Formula { return v.formula(rng, depth-1) }
	group := func() []Formula {
		cs := make([]Formula, 1+rng.Intn(3))
		for i := range cs {
			cs[i] = sub()
		}
		return cs
	}
	bounds := v.bounds[rng.Intn(len(v.bounds))]
	switch rng.Intn(7) {
	case 0:
		return &Not{Child: sub()}
	case 1:
		return NewAnd(group()...)
	case 2:
		return NewOr(group()...)
	case 3:
		return &Implies{L: sub(), R: sub()}
	case 4:
		return &Once{Bounds: bounds, Child: sub()}
	case 5:
		return &Historically{Bounds: bounds, Child: sub()}
	default:
		return &Since{Bounds: bounds, L: sub(), R: sub()}
	}
}

// TestInternMatchesString checks the structural intern keys against
// String on randomized past-only formula sets.
func TestInternMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 400; trial++ {
		v := newInternVocab(rng)
		fs := make([]Formula, 1+rng.Intn(8))
		for i := range fs {
			fs[i] = v.formula(rng, 1+rng.Intn(3))
		}
		checkInternMatchesString(t, fs)
	}
}

// TestEmptyGroupsDoNotShare: an empty conjunction is true and an empty
// disjunction false. Both render as "", and a String-keyed cache
// handed the second one the first one's node.
func TestEmptyGroupsDoNotShare(t *testing.T) {
	g, err := NewBatchStreamGroup(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Formula{NewAnd(), NewOr()} {
		if _, err := g.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.PushLanes([]int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if and, or := g.Sats(0)[0], g.Sats(1)[0]; !and || or {
		t.Fatalf("empty and = %v, empty or = %v, want true and false", and, or)
	}
	if and, or := g.Robs(0)[0], g.Robs(1)[0]; !math.IsInf(and, 1) || !math.IsInf(or, -1) {
		t.Fatalf("empty and robustness %v, empty or %v, want +Inf and -Inf", and, or)
	}
}

// TestAddRejectsInvalidOp: an atom without a comparison op fails to
// compile before its variable joins the group's table, so the push
// layout keeps only the variables of what compiled.
func TestAddRejectsInvalidOp(t *testing.T) {
	g, err := NewBatchStreamGroup(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(NewAnd(&Atom{Var: "x", Op: OpGT}, &Atom{Var: "y", Op: CmpOp(0)})); err == nil {
		t.Fatal("an atom without a comparison op compiled")
	}
	if vars := g.Vars(); !slices.Equal(vars, []string{"x"}) {
		t.Fatalf("variables %q after the failed Add, want [x]", vars)
	}
}
