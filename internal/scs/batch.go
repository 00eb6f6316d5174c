package scs

import (
	"fmt"

	"repro/internal/stl"
	"repro/internal/trace"
)

// StreamVerdict is the per-cycle result of evaluating a rule set
// incrementally: satisfaction, the raw STL minimum across rule bodies,
// and the signed rule margin with its arg-min rule and hazard
// attribution. It is the single evaluation the streaming CAWT monitor,
// Algorithm 1 margin scaling, and fleet hazard telemetry all read from.
type StreamVerdict struct {
	// Sat is true when every rule body held at the pushed sample.
	Sat bool
	// MinRobust is the minimum STL robustness across all rule bodies
	// (the quantitative semantics of the Eq. 1 implication); WorstRule
	// is the ID of the rule attaining it. Note that a violated
	// forbidden-action rule bottoms out at 0 here — the action equality
	// atom has zero robustness at the boundary — which is why Margin
	// below exists.
	MinRobust float64
	WorstRule int
	// Margin is the signed rule margin: with Sat it equals MinRobust
	// (distance to the nearest unsafe-control-action boundary), and on a
	// violation it is minus the violated rule's antecedent robustness —
	// how deep the state sits inside the unsafe context — so alarms carry
	// a usable severity. Rule is the ID of the rule attaining Margin.
	Margin float64
	Rule   int
	// Hazard is the predicted hazard class over the violated rules
	// (H1 wins ties, being the acute hazard); HazardNone when Sat.
	Hazard trace.HazardType
}

// State field selectors for the rule vocabulary.
const (
	selBG = iota
	selBGPrime
	selIOB
	selIOBPrime
	selAction
)

// BatchStreamSet renders a Safety Context Specification's rule bodies
// (the formulas under G[t0,te] in Eq. 1) through the streaming STL
// engine across a whole shard of sessions in one push. The rules'
// antecedents compile into a single hash-consed stl.BatchStreamGroup —
// identical subformulas (shared context atoms, shared windows) evaluate
// once per cycle no matter how many rules contain them, and per-node
// state is a [lanes]-wide vector — and the structurally fixed
// consequent (the u == action equality, per Rule.Consequent) folds
// inline per lane, so one PushLanes per control cycle yields every live
// session's satisfaction, STL body robustness, and signed rule margin.
// Pushes are O(1) amortized per rule and lane, and state is bounded by
// the rules' window lengths, never by session length. Lanes reset
// independently, so a fleet shard recycles a completed session's lane
// without disturbing its neighbors; a set of width 1 is the
// per-session evaluator.
type BatchStreamSet struct {
	rules []Rule
	group *stl.BatchStreamGroup
	width int

	fold ruleFold // the Eq. 1 verdict fold (see fold.go)

	// vals is the reused struct-of-arrays push matrix; sel maps each
	// group variable row to its State field. sats/robs are each rule's
	// antecedent result vectors (stl.BatchStreamGroup.Outputs), fixed at
	// compile time, which the verdict fold reads after every push.
	vals  []float64
	sel   []int
	sats  [][]bool
	robs  [][]float64
	fired [][]int // per active index k: rule IDs violated at the last push
	n     int
}

// NewBatchStreamSet compiles every rule body for batched evaluation
// across `width` session lanes at sampling period dtMin minutes (nil
// thresholds select the rules' CAWOT defaults). Table I bodies are pure
// state predicates, but the compilation accepts any past-only rule
// rendering (e.g. Since-based mitigation specifications).
func NewBatchStreamSet(rules []Rule, th Thresholds, p Params, dtMin float64, width int) (*BatchStreamSet, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("scs: stream set needs at least one rule")
	}
	if th == nil {
		th = Defaults(rules)
	}
	p = p.WithDefaults()
	group, err := stl.NewBatchStreamGroup(dtMin, width)
	if err != nil {
		return nil, fmt.Errorf("scs: %w", err)
	}
	bs := &BatchStreamSet{
		rules: rules,
		group: group,
		width: width,
		fold:  newRuleFold(rules),
		sats:  make([][]bool, len(rules)),
		robs:  make([][]float64, len(rules)),
		fired: make([][]int, width),
	}
	if err = compileAntecedents(rules, th, p, group); err != nil {
		return nil, err
	}
	for i := range rules {
		bs.sats[i], bs.robs[i] = group.Outputs(i)
	}
	if bs.sel, err = fieldSelectors(group.Vars()); err != nil {
		return nil, err
	}
	bs.vals = make([]float64, len(bs.sel)*width)
	for k := range bs.fired {
		bs.fired[k] = make([]int, 0, len(rules))
	}
	return bs, nil
}

// Rules returns the compiled rule set.
func (bs *BatchStreamSet) Rules() []Rule { return bs.rules }

// Width returns the lane count.
func (bs *BatchStreamSet) Width() int { return bs.width }

// Len returns the number of batched pushes consumed.
func (bs *BatchStreamSet) Len() int { return bs.n }

// PushLanes feeds one control cycle's context state for each of the
// given lanes and writes the per-lane verdicts into out (len(out) must
// be at least len(lanes)). states[k] is the cycle state of session lane
// lanes[k]; lanes absent from the call do not advance. Alarm, STL
// robustness, signed margin, and rule attribution all come from this
// single incremental evaluation, folded per lane in rule order, so a
// lane's verdict does not depend on which other lanes share the push.
func (bs *BatchStreamSet) PushLanes(lanes []int, states []State, out []StreamVerdict) error {
	n := len(lanes)
	if n > bs.width {
		// Checked here because the value-matrix fill below slices bs.vals
		// by n before the lane-level validation in the group runs.
		return fmt.Errorf("scs: %d lanes exceed width %d", n, bs.width)
	}
	if len(states) != n {
		return fmt.Errorf("scs: %d states for %d lanes", len(states), n)
	}
	if len(out) < n {
		return fmt.Errorf("scs: verdict buffer holds %d, need %d", len(out), n)
	}
	for vi, sel := range bs.sel {
		row := bs.vals[vi*n : (vi+1)*n]
		switch sel {
		case selBG:
			for k := range states {
				row[k] = states[k].BG
			}
		case selBGPrime:
			for k := range states {
				row[k] = states[k].BGPrime
			}
		case selIOB:
			for k := range states {
				row[k] = states[k].IOB
			}
		case selIOBPrime:
			for k := range states {
				row[k] = states[k].IOBPrime
			}
		case selAction:
			for k := range states {
				row[k] = float64(states[k].Action)
			}
		}
	}
	if err := bs.group.PushLanes(lanes, bs.vals[:len(bs.sel)*n]); err != nil {
		return fmt.Errorf("scs: %w", err)
	}
	for k := 0; k < n; k++ {
		out[k], bs.fired[k] = bs.fold.fold(float64(states[k].Action), k, bs.sats, bs.robs, bs.fired[k][:0])
	}
	bs.n++
	return nil
}

// Fired returns the rule IDs violated at active index k of the last
// push (k indexes the lanes slice that push was called with), in rule
// order. The slice is reused by the next push; callers that retain it
// must copy.
func (bs *BatchStreamSet) Fired(k int) []int { return bs.fired[k] }

// StateSamples returns the total buffered per-sample entries across the
// rule set's unique operator nodes, summed over all lanes (hash-consed
// subformulas count once).
func (bs *BatchStreamSet) StateSamples() int { return bs.group.StateSamples() }

// ResetLane clears one lane's rule-stream state — a session restarting
// in place — leaving other lanes untouched.
func (bs *BatchStreamSet) ResetLane(lane int) { bs.group.ResetLane(lane) }

// Reset clears all rule-stream state in every lane.
func (bs *BatchStreamSet) Reset() {
	bs.group.Reset()
	bs.n = 0
	for k := range bs.fired {
		bs.fired[k] = bs.fired[k][:0]
	}
}
