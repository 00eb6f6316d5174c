package stl

import (
	"fmt"
	"math"
)

// batchCtx carries one batched push through the node DAG: the active
// lane list, the struct-of-arrays value matrix (vals[v*n+k] holds
// variable v of active lane k), and the push sequence number that
// memoized shared nodes key their caches on.
type batchCtx struct {
	lanes []int
	vals  []float64
	n     int
	seq   uint64
}

// batchNode is one compiled operator evaluated across a whole shard of
// sessions at once: step consumes the newest sample of every active
// lane and returns satisfaction and robustness vectors indexed like
// ctx.lanes. The returned slices are prefixes of the node's output
// vectors (outputs), which are allocated at full width at compile time
// and never move; they stay valid until the node's next step. Aliasing
// between parents is safe because a bare-shared stateless node rewrites
// identical values and stateful shared nodes are memo-guarded.
type batchNode interface {
	step(ctx *batchCtx) (sat []bool, rob []float64)
	outputs() *batchOut
	state() int
	reset()
	resetLane(lane int)
}

// batchCompiler lowers past-only formulas to nodes whose per-operator
// state is a [lanes]-wide vector of the per-lane cores (stream.go),
// hash-consing structurally identical subformulas: same atoms and same
// windows compile to one shared node whose state and per-push work
// exist once per group.
type batchCompiler struct {
	dt     float64
	width  int
	vars   []string
	varIdx map[string]int
	ids    map[internKey]int
	nodes  []batchNode // by intern ID; nil until compiled
	memos  []*batchMemoNode
}

func newBatchCompiler(dt float64, width int) *batchCompiler {
	return &batchCompiler{
		dt: dt, width: width,
		varIdx: make(map[string]int),
		ids:    make(map[internKey]int),
	}
}

func (c *batchCompiler) varIndex(name string) int {
	if i, ok := c.varIdx[name]; ok {
		return i
	}
	i := len(c.vars)
	c.vars = append(c.vars, name)
	c.varIdx[name] = i
	return i
}

// internKind tags an interned subformula's operator.
type internKind int

const (
	internAtom internKind = iota
	internConst
	internNot
	internOne // a conjunction or disjunction of one child, which is the child
	internAnd
	internOr
	internImplies
	internOnce
	internHistorically
	internSince
	internList // a child-list cell: child x after cell y, the children before it (-1: none)
)

// internKey identifies a subformula for hash-consing without rendering
// it: the operator, the intern IDs of its children (for an atom, its
// variable's index and its op), and the bits of an atom's threshold or
// of a window's bounds. Two subformulas get one key exactly when
// their parser renderings (String) are equal, so the DAG, and with it
// the snapshot layout, is the one that keying on String built — with
// one deliberate exception: an empty conjunction (true) and an empty
// disjunction (false) both render as "" but no longer share a node.
type internKey struct {
	kind   internKind
	x, y   int
	lo, hi uint64
}

// floatKey is a float's intern bits: every NaN payload is one key, as
// every NaN renders "NaN", while -0 and +0 render, and key, apart.
func floatKey(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// id interns a key, returning its dense ID.
func (c *batchCompiler) id(k internKey) int {
	if i, ok := c.ids[k]; ok {
		return i
	}
	i := len(c.nodes)
	c.ids[k] = i
	c.nodes = append(c.nodes, nil)
	return i
}

// compile lowers one formula with hash-consed sharing and returns its
// node and intern ID. Children compile first, so a node is keyed on
// its children's IDs and nodes are created in post-order. Only stateful
// subtrees are wrapped in the per-push memo: sharing one delay line or
// window deque between formulas is what must not double-advance, while
// a repeated stateless comparison is cheaper than a memo check.
func (c *batchCompiler) compile(f Formula) (batchNode, int, error) {
	k, kids, err := c.key(f)
	if err != nil {
		return nil, 0, err
	}
	id := c.id(k)
	if n := c.nodes[id]; n != nil {
		return n, id, nil
	}
	inner, err := c.lower(f, kids)
	if err != nil {
		return nil, 0, err
	}
	out := inner
	if hasState(f) {
		m := &batchMemoNode{inner: inner}
		c.memos = append(c.memos, m)
		out = m
	}
	c.nodes[id] = out
	return out, id, nil
}

// key compiles f's children and returns f's intern key with the
// children's nodes. A conjunction of ordering atoms is fused into one
// node, so its atoms are interned for their IDs but not compiled.
func (c *batchCompiler) key(f Formula) (internKey, []batchNode, error) {
	switch n := f.(type) {
	case *Atom:
		if n.Op < OpLT || n.Op > OpNE {
			return internKey{}, nil, fmt.Errorf("stl: invalid comparison op %d", int(n.Op))
		}
		return c.atomKey(n), nil, nil
	case Const:
		k := internKey{kind: internConst}
		if n {
			k.x = 1
		}
		return k, nil, nil
	case *Not:
		return c.opKey(internNot, Bounds{}, n.Child)
	case *And:
		if atoms, ok := flatOrderAtoms(n.Children); ok {
			var g group
			for _, a := range atoms {
				g.add(c, c.id(c.atomKey(a)))
			}
			return g.key(internAnd), nil, nil
		}
		return c.opKey(internAnd, Bounds{}, n.Children...)
	case *Or:
		return c.opKey(internOr, Bounds{}, n.Children...)
	case *Implies:
		return c.opKey(internImplies, Bounds{}, n.L, n.R)
	case *Once:
		return c.opKey(internOnce, n.Bounds, n.Child)
	case *Historically:
		return c.opKey(internHistorically, n.Bounds, n.Child)
	case *Since:
		return c.opKey(internSince, n.Bounds, n.L, n.R)
	default:
		return internKey{}, nil, fmt.Errorf("stl: cannot stream %T", f)
	}
}

func (c *batchCompiler) atomKey(a *Atom) internKey {
	return internKey{kind: internAtom, x: c.varIndex(a.Var), y: int(a.Op), lo: floatKey(a.Threshold)}
}

// opKey compiles an operator's children in order and keys it on their
// ID list and its window. The window [0, inf) renders as no bounds at
// all, whatever the sign of its zero.
func (c *batchCompiler) opKey(kind internKind, b Bounds, children ...Formula) (internKey, []batchNode, error) {
	var g group
	kids := make([]batchNode, len(children))
	for i, child := range children {
		n, id, err := c.compile(child)
		if err != nil {
			return internKey{}, nil, err
		}
		kids[i] = n
		g.add(c, id)
	}
	k := g.key(kind)
	if b.A == 0 && math.IsInf(b.B, 1) {
		b.A = 0
	}
	k.lo, k.hi = floatKey(b.A), floatKey(b.B)
	return k, kids, nil
}

// group accumulates an operator's child IDs as interned list cells,
// each cell holding one child and the cell before it.
type group struct {
	n, first, list int
}

func (g *group) add(c *batchCompiler, id int) {
	if g.n == 0 {
		g.first, g.list = id, -1
	}
	g.list = c.id(internKey{kind: internList, x: id, y: g.list})
	g.n++
}

// key keys an operator on its child list. A conjunction or disjunction
// of one child renders "(child)" either way, so both take one key.
func (g *group) key(kind internKind) internKey {
	if g.n == 1 && (kind == internAnd || kind == internOr) {
		return internKey{kind: internOne, x: g.first}
	}
	if g.n == 0 {
		return internKey{kind: kind, x: -1}
	}
	return internKey{kind: kind, x: g.list}
}

// lower builds one operator's node over its compiled children. Minute
// bounds convert to inclusive sample offsets exactly as Bounds.window
// does, so streaming and offline evaluation agree on window edges
// (including empty fractional windows).
func (c *batchCompiler) lower(f Formula, kids []batchNode) (batchNode, error) {
	switch n := f.(type) {
	case *Atom:
		return &batchAtomNode{
			varIdx: c.varIndex(n.Var), op: n.Op, threshold: n.Threshold,
			batchOut: newBatchOut(c.width),
		}, nil
	case Const:
		bc := &batchConstNode{batchOut: newBatchOut(c.width)}
		rob := math.Inf(-1)
		if bool(n) {
			rob = math.Inf(1)
		}
		for k := 0; k < c.width; k++ {
			bc.sat[k] = bool(n)
			bc.rob[k] = rob
		}
		return bc, nil
	case *Not:
		return &batchNotNode{child: kids[0], batchOut: newBatchOut(c.width)}, nil
	case *And:
		if kids == nil { // fused: key interned the atoms without compiling them
			fa := &batchFlatAndNode{
				atoms:    make([]fusedAtom, len(n.Children)),
				batchOut: newBatchOut(c.width),
			}
			for i, child := range n.Children {
				a := child.(*Atom)
				fa.atoms[i] = newFusedAtom(c.varIndex(a.Var), a.Op, a.Threshold)
			}
			return fa, nil
		}
		return &batchAndNode{children: kids, batchOut: newBatchOut(c.width)}, nil
	case *Or:
		return &batchOrNode{children: kids, batchOut: newBatchOut(c.width)}, nil
	case *Implies:
		return &batchImpliesNode{l: kids[0], r: kids[1], batchOut: newBatchOut(c.width)}, nil
	case *Once:
		lo, hi, err := pastWindow(n.Bounds, c.dt)
		if err != nil {
			return nil, err
		}
		return newBatchWindowNode(kids[0], lo, hi, false, c.width), nil
	case *Historically:
		lo, hi, err := pastWindow(n.Bounds, c.dt)
		if err != nil {
			return nil, err
		}
		return newBatchWindowNode(kids[0], lo, hi, true, c.width), nil
	case *Since:
		lo, hi, err := pastWindow(n.Bounds, c.dt)
		if err != nil {
			return nil, err
		}
		return newBatchSinceNode(kids[0], kids[1], lo, hi, c.width), nil
	default:
		return nil, fmt.Errorf("stl: cannot stream %T", f)
	}
}

// batchOut is a node's output vector pair, sized to the group width at
// construction so the hot path never allocates. Nodes embed it, which
// gives them the outputs method.
type batchOut struct {
	sat []bool
	rob []float64
}

func (o *batchOut) outputs() *batchOut { return o }

func newBatchOut(width int) batchOut {
	return batchOut{sat: make([]bool, width), rob: make([]float64, width)}
}

// batchMemoNode guards a stateful node shared between formulas: the
// first step of a push advances the inner node across all active lanes,
// later steps within the same push return the cached vectors, so shared
// operator state consumes each batched sample exactly once.
type batchMemoNode struct {
	inner   batchNode
	seq     uint64
	sat     []bool
	rob     []float64
	visited bool // StateSamples dedup walk marker
}

//fleetvet:noalloc
func (m *batchMemoNode) step(ctx *batchCtx) ([]bool, []float64) {
	if m.seq == ctx.seq {
		return m.sat, m.rob
	}
	m.seq = ctx.seq
	m.sat, m.rob = m.inner.step(ctx)
	return m.sat, m.rob
}

func (m *batchMemoNode) state() int {
	if m.visited {
		return 0
	}
	m.visited = true
	return m.inner.state()
}

func (m *batchMemoNode) reset() {
	m.seq = 0
	m.inner.reset()
}

func (m *batchMemoNode) resetLane(lane int) { m.inner.resetLane(lane) }

func (m *batchMemoNode) outputs() *batchOut { return m.inner.outputs() }

// --- stateless batch nodes -------------------------------------------

type batchAtomNode struct {
	varIdx    int
	op        CmpOp
	threshold float64
	batchOut
}

//fleetvet:noalloc
func (a *batchAtomNode) step(ctx *batchCtx) ([]bool, []float64) {
	n := ctx.n
	vals := ctx.vals[a.varIdx*n : (a.varIdx+1)*n]
	sat, rob := a.sat[:n], a.rob[:n]
	th := a.threshold
	// One loop per comparison op, with the dispatch hoisted out of the
	// lane loop.
	switch a.op {
	case OpLT:
		for k, v := range vals {
			sat[k], rob[k] = v < th, th-v
		}
	case OpLE:
		for k, v := range vals {
			sat[k], rob[k] = v <= th, th-v
		}
	case OpGT:
		for k, v := range vals {
			sat[k], rob[k] = v > th, v-th
		}
	case OpGE:
		for k, v := range vals {
			sat[k], rob[k] = v >= th, v-th
		}
	case OpEQ:
		for k, v := range vals {
			sat[k], rob[k] = v == th, -math.Abs(v-th)
		}
	case OpNE:
		for k, v := range vals {
			sat[k], rob[k] = v != th, math.Abs(v-th)
		}
	}
	return sat, rob
}

func (a *batchAtomNode) state() int    { return 0 }
func (a *batchAtomNode) reset()        {}
func (a *batchAtomNode) resetLane(int) {}

type batchConstNode struct{ batchOut }

//fleetvet:noalloc
func (c *batchConstNode) step(ctx *batchCtx) ([]bool, []float64) {
	return c.sat[:ctx.n], c.rob[:ctx.n]
}

func (c *batchConstNode) state() int    { return 0 }
func (c *batchConstNode) reset()        {}
func (c *batchConstNode) resetLane(int) {}

type batchNotNode struct {
	child batchNode
	batchOut
}

//fleetvet:noalloc
func (nn *batchNotNode) step(ctx *batchCtx) ([]bool, []float64) {
	cs, cr := nn.child.step(ctx)
	sat, rob := nn.sat[:ctx.n], nn.rob[:ctx.n]
	for k := range cs {
		sat[k], rob[k] = !cs[k], -cr[k]
	}
	return sat, rob
}

func (nn *batchNotNode) state() int         { return nn.child.state() }
func (nn *batchNotNode) reset()             { nn.child.reset() }
func (nn *batchNotNode) resetLane(lane int) { nn.child.resetLane(lane) }

// batchFlatAndNode is a conjunction of ordering predicates fused into
// one node: the common Safety Context Specification antecedent shape,
// hot enough in per-cycle monitoring to deserve a dispatch- and
// branch-lean loop. Semantics are exactly batchAndNode over the same
// atoms. Across a shard it iterates session-major: the atom loop is
// outer, the lane loop inner, so each linear form streams through the
// whole shard's values contiguously. A one-lane push runs the atoms in
// registers instead. Both loops fold each lane's atoms in the same
// order, so a lane's result does not depend on the push width.
type batchFlatAndNode struct {
	atoms []fusedAtom
	batchOut
}

//fleetvet:noalloc
func (a *batchFlatAndNode) step(ctx *batchCtx) ([]bool, []float64) {
	n := ctx.n
	sat, rob := a.sat[:n], a.rob[:n]
	if n == 1 {
		s, r := true, math.Inf(1)
		for i := range a.atoms {
			at := &a.atoms[i]
			cr := ctx.vals[at.varIdx]*at.mul + at.add
			// Negated comparisons so a NaN input reads unsatisfied, exactly
			// like the unfused atom's direct v-vs-θ comparison.
			if at.strict {
				if !(cr > 0) {
					s = false
				}
			} else if !(cr >= 0) {
				s = false
			}
			// Compare-based min with explicit NaN propagation: equal to the
			// math.Min fold of batchAndNode (a NaN input poisons the
			// conjunction's robustness there too), minus its ±0 branches.
			if cr < r || cr != cr {
				r = cr
			}
		}
		sat[0], rob[0] = s, r
		return sat, rob
	}
	for k := range sat {
		sat[k], rob[k] = true, math.Inf(1)
	}
	for i := range a.atoms {
		at := &a.atoms[i]
		vals := ctx.vals[at.varIdx*n : (at.varIdx+1)*n]
		if at.strict {
			for k, v := range vals {
				cr := v*at.mul + at.add
				if !(cr > 0) {
					sat[k] = false
				}
				if cr < rob[k] || cr != cr {
					rob[k] = cr
				}
			}
		} else {
			for k, v := range vals {
				cr := v*at.mul + at.add
				if !(cr >= 0) {
					sat[k] = false
				}
				if cr < rob[k] || cr != cr {
					rob[k] = cr
				}
			}
		}
	}
	return sat, rob
}

func (a *batchFlatAndNode) state() int    { return 0 }
func (a *batchFlatAndNode) reset()        {}
func (a *batchFlatAndNode) resetLane(int) {}

type batchAndNode struct {
	children []batchNode
	batchOut
}

//fleetvet:noalloc
func (a *batchAndNode) step(ctx *batchCtx) ([]bool, []float64) {
	n := ctx.n
	sat, rob := a.sat[:n], a.rob[:n]
	for k := range sat {
		sat[k], rob[k] = true, math.Inf(1)
	}
	for _, c := range a.children {
		cs, cr := c.step(ctx)
		for k := range cs {
			sat[k] = sat[k] && cs[k]
			rob[k] = math.Min(rob[k], cr[k])
		}
	}
	return sat, rob
}

func (a *batchAndNode) state() int         { return batchChildrenState(a.children) }
func (a *batchAndNode) reset()             { batchResetChildren(a.children) }
func (a *batchAndNode) resetLane(lane int) { batchResetChildrenLane(a.children, lane) }

type batchOrNode struct {
	children []batchNode
	batchOut
}

//fleetvet:noalloc
func (o *batchOrNode) step(ctx *batchCtx) ([]bool, []float64) {
	n := ctx.n
	sat, rob := o.sat[:n], o.rob[:n]
	for k := range sat {
		sat[k], rob[k] = false, math.Inf(-1)
	}
	for _, c := range o.children {
		cs, cr := c.step(ctx)
		for k := range cs {
			sat[k] = sat[k] || cs[k]
			rob[k] = math.Max(rob[k], cr[k])
		}
	}
	return sat, rob
}

func (o *batchOrNode) state() int         { return batchChildrenState(o.children) }
func (o *batchOrNode) reset()             { batchResetChildren(o.children) }
func (o *batchOrNode) resetLane(lane int) { batchResetChildrenLane(o.children, lane) }

type batchImpliesNode struct {
	l, r batchNode
	batchOut
}

//fleetvet:noalloc
func (im *batchImpliesNode) step(ctx *batchCtx) ([]bool, []float64) {
	ls, lr := im.l.step(ctx)
	rs, rr := im.r.step(ctx)
	sat, rob := im.sat[:ctx.n], im.rob[:ctx.n]
	for k := range ls {
		sat[k] = !ls[k] || rs[k]
		rob[k] = math.Max(-lr[k], rr[k])
	}
	return sat, rob
}

func (im *batchImpliesNode) state() int { return im.l.state() + im.r.state() }
func (im *batchImpliesNode) reset()     { im.l.reset(); im.r.reset() }
func (im *batchImpliesNode) resetLane(lane int) {
	im.l.resetLane(lane)
	im.r.resetLane(lane)
}

func batchChildrenState(cs []batchNode) int {
	t := 0
	for _, c := range cs {
		t += c.state()
	}
	return t
}

func batchResetChildren(cs []batchNode) {
	for _, c := range cs {
		c.reset()
	}
}

func batchResetChildrenLane(cs []batchNode, lane int) {
	for _, c := range cs {
		c.resetLane(lane)
	}
}

// --- stateful batch nodes --------------------------------------------

// batchWindowNode is Once (max) or Historically (min) across the shard:
// per-node state is a [lanes]-wide vector of extremum cores (delay line
// + Lemire deque each), iterated session-major per push, so the node's
// dispatch and the child's vector stay hot across the shard. Each lane
// runs two cores, over robustness and over satisfaction as 0/1.
type batchWindowNode struct {
	child batchNode
	robC  []*extremumCore
	satC  []*extremumCore
	batchOut
}

func newBatchWindowNode(child batchNode, lo, hi int, isMin bool, width int) *batchWindowNode {
	w := &batchWindowNode{
		child:    child,
		robC:     make([]*extremumCore, width),
		satC:     make([]*extremumCore, width),
		batchOut: newBatchOut(width),
	}
	for i := range w.robC {
		w.robC[i] = newExtremumCore(lo, hi, isMin)
		w.satC[i] = newExtremumCore(lo, hi, isMin)
	}
	return w
}

//fleetvet:noalloc
func (w *batchWindowNode) step(ctx *batchCtx) ([]bool, []float64) {
	cs, cr := w.child.step(ctx)
	sat, rob := w.sat[:ctx.n], w.rob[:ctx.n]
	for k := 0; k < ctx.n; k++ {
		lane := ctx.lanes[k]
		rob[k] = w.robC[lane].push(cr[k])
		sat[k] = w.satC[lane].push(boolToFloat(cs[k])) > 0.5
	}
	return sat, rob
}

func (w *batchWindowNode) state() int {
	t := w.child.state()
	for i := range w.robC {
		t += w.robC[i].state() + w.satC[i].state()
	}
	return t
}

func (w *batchWindowNode) reset() {
	w.child.reset()
	for i := range w.robC {
		w.robC[i].reset()
		w.satC[i].reset()
	}
}

func (w *batchWindowNode) resetLane(lane int) {
	w.child.resetLane(lane)
	w.robC[lane].reset()
	w.satC[lane].reset()
}

// batchSinceNode is L S[a,b] R across the shard, one pair of since
// cores per lane.
type batchSinceNode struct {
	l, r batchNode
	robC []*sinceCore
	satC []*sinceCore
	batchOut
}

func newBatchSinceNode(l, r batchNode, lo, hi, width int) *batchSinceNode {
	s := &batchSinceNode{
		l: l, r: r,
		robC:     make([]*sinceCore, width),
		satC:     make([]*sinceCore, width),
		batchOut: newBatchOut(width),
	}
	for i := range s.robC {
		s.robC[i] = newSinceCore(lo, hi)
		s.satC[i] = newSinceCore(lo, hi)
	}
	return s
}

//fleetvet:noalloc
func (s *batchSinceNode) step(ctx *batchCtx) ([]bool, []float64) {
	ls, lr := s.l.step(ctx)
	rs, rr := s.r.step(ctx)
	sat, rob := s.sat[:ctx.n], s.rob[:ctx.n]
	for k := 0; k < ctx.n; k++ {
		lane := ctx.lanes[k]
		rob[k] = s.robC[lane].push(lr[k], rr[k])
		sat[k] = s.satC[lane].push(boolToFloat(ls[k]), boolToFloat(rs[k])) > 0.5
	}
	return sat, rob
}

func (s *batchSinceNode) state() int {
	t := s.l.state() + s.r.state()
	for i := range s.robC {
		t += s.robC[i].state() + s.satC[i].state()
	}
	return t
}

func (s *batchSinceNode) reset() {
	s.l.reset()
	s.r.reset()
	for i := range s.robC {
		s.robC[i].reset()
		s.satC[i].reset()
	}
}

func (s *batchSinceNode) resetLane(lane int) {
	s.l.resetLane(lane)
	s.r.resetLane(lane)
	s.robC[lane].reset()
	s.satC[lane].reset()
}

// --- group -----------------------------------------------------------

// BatchStreamGroup evaluates many past-only formulas across a whole
// shard of independent sessions (lanes) in one struct-of-arrays push:
// the formulas compile into one hash-consed node DAG in which every
// node carries [lanes]-wide state and output vectors and iterates
// session-major, so per-push dispatch, memo checks, and value loads
// amortize across the shard instead of being paid once per session.
// Every lane's results equal the offline Sat/Robustness of its samples
// since its last reset, exactly (the differential tests enforce ==).
// Lanes reset independently, which is what lets a fleet shard recycle a
// lane for a fresh session without touching its neighbors; a group of
// width 1 is the per-session evaluator.
type BatchStreamGroup struct {
	comp     *batchCompiler
	formulas []Formula
	roots    []batchNode
	width    int
	pushes   uint64
	laneN    []int // per-lane sample counts (snapshot/restore cursor)
	ctx      batchCtx
	seen     []bool // per-lane duplicate check scratch
}

// NewBatchStreamGroup creates an empty batched group at sampling period
// dtMin minutes with the given lane count.
func NewBatchStreamGroup(dtMin float64, width int) (*BatchStreamGroup, error) {
	if dtMin <= 0 {
		return nil, fmt.Errorf("stl: non-positive sampling period %v", dtMin)
	}
	if width <= 0 {
		return nil, fmt.Errorf("stl: batch group needs positive width, got %d", width)
	}
	return &BatchStreamGroup{
		comp:  newBatchCompiler(dtMin, width),
		width: width,
		laneN: make([]int, width),
		seen:  make([]bool, width),
	}, nil
}

// Add compiles a past-only formula into the group and returns its
// index. Formulas may only be added before the first push.
func (g *BatchStreamGroup) Add(f Formula) (int, error) {
	if f == nil {
		return 0, fmt.Errorf("stl: nil formula")
	}
	if g.pushes > 0 {
		return 0, fmt.Errorf("stl: cannot add formulas to a running group")
	}
	if !PastOnly(f) {
		return 0, fmt.Errorf("stl: formula %q needs future knowledge; cannot monitor online", f)
	}
	root, _, err := g.comp.compile(f)
	if err != nil {
		return 0, err
	}
	g.formulas = append(g.formulas, f)
	g.roots = append(g.roots, root)
	return len(g.roots) - 1, nil
}

// Size returns the number of formulas in the group.
func (g *BatchStreamGroup) Size() int { return len(g.roots) }

// Width returns the lane count.
func (g *BatchStreamGroup) Width() int { return g.width }

// Len returns the number of batched pushes consumed.
func (g *BatchStreamGroup) Len() int { return int(g.pushes) }

// Dt returns the sampling period in minutes.
func (g *BatchStreamGroup) Dt() float64 { return g.comp.dt }

// Vars returns the variable table: PushLanes values are indexed by this
// order. The table grows only in Add, never during pushes.
func (g *BatchStreamGroup) Vars() []string { return g.comp.vars }

// VarIndex resolves a variable name to its value-matrix row.
func (g *BatchStreamGroup) VarIndex(name string) (int, bool) {
	i, ok := g.comp.varIdx[name]
	return i, ok
}

// PushLanes consumes one sample for each of the given lanes: vals is
// the struct-of-arrays value matrix, vals[v*len(lanes)+k] holding
// variable v (in Vars order) of lane lanes[k]. Lanes absent from the
// call do not advance. A duplicated lane ID is rejected before any
// operator state advances — it would double-advance that lane's
// operator state, silently corrupting its windows.
//
//fleetvet:noalloc
func (g *BatchStreamGroup) PushLanes(lanes []int, vals []float64) error {
	n := len(lanes)
	if n == 0 {
		return fmt.Errorf("stl: empty batch push")
	}
	for i, lane := range lanes {
		if lane < 0 || lane >= g.width {
			g.clearSeen(lanes[:i])
			return fmt.Errorf("stl: lane %d out of range [0, %d)", lane, g.width)
		}
		if g.seen[lane] {
			g.clearSeen(lanes[:i])
			return fmt.Errorf("stl: duplicate lane %d in one push", lane)
		}
		g.seen[lane] = true
	}
	g.clearSeen(lanes)
	if want := len(g.comp.vars) * n; len(vals) != want {
		return fmt.Errorf("stl: value matrix has %d entries, want %d (%d variables x %d lanes)",
			len(vals), want, len(g.comp.vars), n)
	}
	g.pushes++
	for _, lane := range lanes {
		g.laneN[lane]++
	}
	g.ctx = batchCtx{lanes: lanes, vals: vals, n: n, seq: g.pushes}
	for _, r := range g.roots {
		r.step(&g.ctx)
	}
	g.ctx.lanes, g.ctx.vals = nil, nil
	return nil
}

// clearSeen unmarks the duplicate-check scratch for the given lanes
// (only touched entries, so the check stays O(len(lanes)) per push).
func (g *BatchStreamGroup) clearSeen(lanes []int) {
	for _, lane := range lanes {
		g.seen[lane] = false
	}
}

// Sats returns formula i's satisfaction vector at the last push,
// indexed like the lanes slice that push was called with (empty before
// the first push). The slice is reused by the next push; callers that
// retain it must copy.
func (g *BatchStreamGroup) Sats(i int) []bool { return g.roots[i].outputs().sat[:g.ctx.n] }

// Robs returns formula i's robustness vector at the last push, indexed
// like the lanes slice that push was called with (empty before the
// first push). The slice is reused by the next push; callers that
// retain it must copy.
func (g *BatchStreamGroup) Robs(i int) []float64 { return g.roots[i].outputs().rob[:g.ctx.n] }

// Outputs returns formula i's full-width result vectors. They are
// allocated when the formula is added and never move: after a push of
// n lanes, entries [0, n) hold the results indexed like that push's
// lanes slice. A caller that reads every push can hold them once
// instead of calling Sats and Robs per push.
func (g *BatchStreamGroup) Outputs(i int) ([]bool, []float64) {
	o := g.roots[i].outputs()
	return o.sat, o.rob
}

// StateSamples returns the total buffered per-sample entries across the
// group's unique operator nodes, summed over all lanes (hash-consed
// subformulas count once).
func (g *BatchStreamGroup) StateSamples() int {
	for _, m := range g.comp.memos {
		m.visited = false
	}
	t := 0
	for _, r := range g.roots {
		t += r.state()
	}
	return t
}

// ResetLane clears one lane's operator state, as if that lane had seen
// no samples; other lanes are untouched.
func (g *BatchStreamGroup) ResetLane(lane int) {
	for _, r := range g.roots {
		r.resetLane(lane)
	}
	g.laneN[lane] = 0
}

// LaneLen returns the number of samples lane has consumed since its
// last reset: the cursor a lane snapshot records.
func (g *BatchStreamGroup) LaneLen(lane int) int { return g.laneN[lane] }

// Reset clears all operator state in every lane. Sats/Robs return
// empty vectors again until the next push, as on a fresh group.
func (g *BatchStreamGroup) Reset() {
	for _, r := range g.roots {
		r.reset()
	}
	g.ctx.n = 0
	for i := range g.laneN {
		g.laneN[i] = 0
	}
	g.pushes = 0
}
