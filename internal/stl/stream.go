package stl

import "math"

// Per-lane operator cores of the batched streaming engine (batch.go).
// Each temporal node of a BatchStreamGroup holds one core per lane:
// ring buffers for the bounded-history delay lines, monotonic (Lemire)
// deques for the Once/Historically window extrema, and a clamp-merge
// candidate deque for bounded Since, so every push costs O(1) amortized
// per lane and retained state is O(sum of window lengths), independent
// of how long a session runs.

// hasState reports whether a formula's compiled form buffers samples
// (contains a past-time temporal operator).
func hasState(f Formula) bool {
	switch n := f.(type) {
	case *Once, *Historically, *Since:
		return true
	case *Not:
		return hasState(n.Child)
	case *And:
		for _, c := range n.Children {
			if hasState(c) {
				return true
			}
		}
		return false
	case *Or:
		for _, c := range n.Children {
			if hasState(c) {
				return true
			}
		}
		return false
	case *Implies:
		return hasState(n.L) || hasState(n.R)
	default:
		return false
	}
}

// pastWindow converts minute bounds to inclusive sample offsets; hi < 0
// encodes an unbounded window (back to the first sample). It delegates
// to the same Bounds.window conversion the offline evaluator uses —
// with horizon -1 an unbounded B comes back as exactly that sentinel —
// so streaming and offline can never disagree on window edges.
func pastWindow(b Bounds, dt float64) (lo, hi int, err error) {
	return b.window(dt, -1)
}

// flatOrderAtoms reports whether every child is an ordering predicate
// (<, <=, >, >=) — the shapes that reduce to a linear robustness form.
func flatOrderAtoms(children []Formula) ([]*Atom, bool) {
	out := make([]*Atom, len(children))
	for i, c := range children {
		a, ok := c.(*Atom)
		if !ok || a.Op < OpLT || a.Op > OpGE {
			return nil, false
		}
		out[i] = a
	}
	return out, true
}

// fusedAtom is an ordering predicate precompiled to rob = v·mul + add:
// mul = -1, add = θ for v < θ / v <= θ (rob = θ - v) and mul = 1,
// add = -θ for v > θ / v >= θ (rob = v - θ), exactly the batchAtomNode
// arithmetic with the comparison switch folded away. strict
// distinguishes satisfaction rob > 0 from rob >= 0.
type fusedAtom struct {
	varIdx   int
	mul, add float64
	strict   bool
}

func newFusedAtom(varIdx int, op CmpOp, threshold float64) fusedAtom {
	f := fusedAtom{varIdx: varIdx, mul: 1, add: -threshold, strict: op == OpLT || op == OpGT}
	if op == OpLT || op == OpLE {
		f.mul, f.add = -1, threshold
	}
	return f
}

// --- shared stateful machinery ---------------------------------------

// delayLine is a fixed-size FIFO that releases each pushed value after
// exactly `size` further pushes: the [A, ...] lower bound of a past
// window delays the child stream by lo samples.
type delayLine struct {
	buf  []float64
	head int
	n    int
}

func newDelayLine(size int) *delayLine {
	return &delayLine{buf: make([]float64, size)}
}

// push inserts v and returns the value falling out of the line, if any.
// A zero-size line passes v straight through.
//
//fleetvet:noalloc
func (d *delayLine) push(v float64) (out float64, ok bool) {
	if len(d.buf) == 0 {
		return v, true
	}
	if d.n < len(d.buf) {
		d.buf[(d.head+d.n)%len(d.buf)] = v
		d.n++
		return 0, false
	}
	out = d.buf[d.head]
	d.buf[d.head] = v
	d.head = (d.head + 1) % len(d.buf)
	return out, true
}

func (d *delayLine) state() int { return d.n }

func (d *delayLine) reset() {
	d.head, d.n = 0, 0
}

// monoDeque is a Lemire sliding-window extremum deque: values are kept
// monotonic (non-increasing for max, non-decreasing for min) from front
// to back, with indices increasing, so the window extremum is always at
// the front. Pushes are O(1) amortized; memory is O(window).
type monoDeque struct {
	idx   []int
	val   []float64
	head  int
	isMin bool
}

func newMonoDeque(capacity int, isMin bool) *monoDeque {
	if capacity < 1 {
		capacity = 1
	}
	return &monoDeque{
		idx:   make([]int, 0, capacity),
		val:   make([]float64, 0, capacity),
		isMin: isMin,
	}
}

// dominates reports whether a new value v makes an older value u
// redundant (the new index is larger, so on ties the new entry wins).
func (q *monoDeque) dominates(v, u float64) bool {
	if q.isMin {
		return v <= u
	}
	return v >= u
}

//fleetvet:noalloc
func (q *monoDeque) push(i int, v float64) {
	for q.len() > 0 && q.dominates(v, q.val[len(q.val)-1]) {
		q.idx = q.idx[:len(q.idx)-1]
		q.val = q.val[:len(q.val)-1]
	}
	if q.head > 0 && q.len() == 0 {
		// Compact so the slices do not creep rightward forever.
		q.idx = q.idx[:0]
		q.val = q.val[:0]
		q.head = 0
	}
	if q.head > 0 && len(q.idx) == cap(q.idx) {
		n := copy(q.idx[:q.len()], q.idx[q.head:])
		copy(q.val[:n], q.val[q.head:])
		q.idx = q.idx[:n]
		q.val = q.val[:n]
		q.head = 0
	}
	q.idx = append(q.idx, i) //fleetvet:alloc capacity preallocated for the window bound at construction
	q.val = append(q.val, v) //fleetvet:alloc capacity preallocated for the window bound at construction
}

// evictBefore drops front entries with index < minIdx.
func (q *monoDeque) evictBefore(minIdx int) {
	for q.len() > 0 && q.idx[q.head] < minIdx {
		q.head++
	}
}

func (q *monoDeque) len() int { return len(q.idx) - q.head }

// front returns the window extremum.
func (q *monoDeque) front() float64 { return q.val[q.head] }

// frontIdx returns the index of the extremum entry.
func (q *monoDeque) frontIdx() int { return q.idx[q.head] }

// popFront removes the extremum entry.
func (q *monoDeque) popFront() { q.head++ }

// pushFront reinserts a merged entry at the extremum end (clamp-merge of
// the bounded-Since candidate deque). The caller guarantees v keeps the
// monotonic invariant and that at least one popFront preceded this call,
// so there is always slack at the front.
func (q *monoDeque) pushFront(i int, v float64) {
	if q.head == 0 {
		panic("stl: pushFront without a preceding popFront")
	}
	q.head--
	q.idx[q.head], q.val[q.head] = i, v
}

func (q *monoDeque) reset() {
	q.idx = q.idx[:0]
	q.val = q.val[:0]
	q.head = 0
}

// --- Once / Historically ---------------------------------------------

// extremumCore computes the sliding extremum of one float64 stream over
// the past window [lo, hi] in sample offsets (hi < 0: unbounded). It is
// instantiated twice per temporal node and lane: once over robustness values and
// once over satisfaction encoded as 0/1 (min = and, max = or), so both
// semantics stream through identical machinery.
type extremumCore struct {
	lo, hi int
	isMin  bool
	i      int // samples consumed

	delay *delayLine
	dq    *monoDeque // bounded window
	agg   float64    // unbounded window running extremum
}

func newExtremumCore(lo, hi int, isMin bool) *extremumCore {
	c := &extremumCore{lo: lo, hi: hi, isMin: isMin, delay: newDelayLine(lo)}
	if hi >= 0 {
		c.dq = newMonoDeque(hi-lo+1, isMin)
	}
	c.resetAgg()
	return c
}

func (c *extremumCore) resetAgg() {
	if c.isMin {
		c.agg = math.Inf(1)
	} else {
		c.agg = math.Inf(-1)
	}
}

// empty is the extremum of an empty window: -Inf for max (Once of
// nothing is false), +Inf for min (Historically of nothing is true).
func (c *extremumCore) empty() float64 {
	if c.isMin {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

//fleetvet:noalloc
func (c *extremumCore) push(v float64) float64 {
	i := c.i
	c.i++
	if c.hi >= 0 && c.lo > c.hi {
		return c.empty() // fractional bounds with no sample offsets
	}
	dv, ok := c.delay.push(v)
	if !ok {
		return c.empty() // window has not reached the first sample yet
	}
	d := i - c.lo // index of the delayed sample
	if c.hi < 0 {
		if c.isMin {
			c.agg = math.Min(c.agg, dv)
		} else {
			c.agg = math.Max(c.agg, dv)
		}
		return c.agg
	}
	c.dq.push(d, dv)
	c.dq.evictBefore(i - c.hi)
	return c.dq.front()
}

func (c *extremumCore) state() int {
	n := c.delay.state()
	if c.dq != nil {
		n += c.dq.len()
	}
	return n
}

func (c *extremumCore) reset() {
	c.i = 0
	c.delay.reset()
	if c.dq != nil {
		c.dq.reset()
	}
	c.resetAgg()
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// --- Since -----------------------------------------------------------

// sinceCore streams the quantitative Since semantics over one pair of
// float64 streams (phi = left operand, psi = right operand):
//
//	out_i = max over j in [i-hi, i-lo] of
//	        min( psi_j, min over k in (j, i] of phi_k )
//
// Each candidate witness j carries the running value A_i(j) =
// min(psi_j, min phi over (j, i]). On every push all candidates are
// clamped by min(·, phi_i); because min distributes over max, the
// candidates can live in a max-deque where the clamp collapses the
// strictly-greater front prefix into a single entry keeping the newest
// index (clamp-merge), preserving both dominance order and expiry
// correctness. A candidate enters the deque lo pushes after its psi
// sample, pre-clamped with the sliding minimum of phi over the samples
// it skipped, so the [lo, hi] offset window needs no per-step rescans.
// With hi unbounded the whole deque degenerates to one scalar
// recursion: z_i = max(min(z_{i-1}, phi_i), candidate_i).
//
// Boolean Since runs the identical algorithm over {0,1} (min = and,
// max = or). Every push is O(1) amortized; state is O(window).
type sinceCore struct {
	lo, hi int
	i      int

	phiWin   *monoDeque // sliding min of phi over the last lo samples
	psiDelay *delayLine // psi values waiting to become candidates

	cand *monoDeque // bounded hi: candidate max-deque
	z    float64    // unbounded hi: running max
}

func newSinceCore(lo, hi int) *sinceCore {
	c := &sinceCore{lo: lo, hi: hi, psiDelay: newDelayLine(lo)}
	if lo > 0 {
		c.phiWin = newMonoDeque(lo, true)
	}
	if hi >= 0 {
		c.cand = newMonoDeque(hi-lo+1, false)
	}
	c.z = math.Inf(-1)
	return c
}

//fleetvet:noalloc
func (c *sinceCore) push(phi, psi float64) float64 {
	i := c.i
	c.i++
	if c.hi >= 0 && c.lo > c.hi {
		return math.Inf(-1) // fractional bounds with no sample offsets
	}

	// Sliding min of phi over the last lo samples (k in [i-lo+1, i]):
	// the pre-clamp applied to a candidate the moment it enters.
	if c.phiWin != nil {
		c.phiWin.push(i, phi)
		c.phiWin.evictBefore(i - c.lo + 1)
	}

	// The candidate maturing now, if the window reaches back to it.
	dpsi, mature := c.psiDelay.push(psi)
	cv := math.Inf(-1)
	if mature {
		cv = dpsi
		if c.phiWin != nil {
			cv = math.Min(cv, c.phiWin.front())
		}
	}

	if c.hi < 0 {
		// Unbounded window: clamp the running max, fold the candidate.
		c.z = math.Min(c.z, phi)
		if mature {
			c.z = math.Max(c.z, cv)
		}
		return c.z
	}

	// Clamp-merge: every stored candidate predates this sample, so all
	// of them take min(·, phi). Entries strictly above phi form the
	// front prefix of the max-deque; they collapse to value phi, and
	// only the newest (latest-expiring) index needs to survive.
	if c.cand.len() > 0 && c.cand.front() > phi {
		merged := c.cand.frontIdx()
		for c.cand.len() > 0 && c.cand.front() > phi {
			merged = c.cand.frontIdx()
			c.cand.popFront()
		}
		c.cand.pushFront(merged, phi)
	}
	// Expire witnesses older than the window, then admit the new one.
	c.cand.evictBefore(i - c.hi)
	if mature {
		c.cand.push(i-c.lo, cv)
	}
	if c.cand.len() == 0 {
		return math.Inf(-1)
	}
	return c.cand.front()
}

func (c *sinceCore) state() int {
	n := c.psiDelay.state()
	if c.phiWin != nil {
		n += c.phiWin.len()
	}
	if c.cand != nil {
		n += c.cand.len()
	}
	return n
}

func (c *sinceCore) reset() {
	c.i = 0
	c.psiDelay.reset()
	if c.phiWin != nil {
		c.phiWin.reset()
	}
	if c.cand != nil {
		c.cand.reset()
	}
	c.z = math.Inf(-1)
}
