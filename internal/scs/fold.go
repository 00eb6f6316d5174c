package scs

import (
	"fmt"
	"math"

	"repro/internal/stl"
	"repro/internal/trace"
)

// compileAntecedents validates a rule set and adds each rule's
// antecedent to group in rule order, so group formula i is rule i's
// antecedent.
func compileAntecedents(rules []Rule, th Thresholds, p Params, group *stl.BatchStreamGroup) error {
	for _, r := range rules {
		beta, ok := th[r.ID]
		if !ok {
			return fmt.Errorf("scs: missing threshold for rule %d", r.ID)
		}
		if r.Hazard == trace.HazardNone {
			// Every Safety Context Specification rule predicts a hazard
			// class; a zero Hazard is a construction bug, and admitting it
			// would fabricate an H2 attribution on violation.
			return fmt.Errorf("scs: rule %d has no hazard class", r.ID)
		}
		if _, err := group.Add(r.Antecedent(p, beta)); err != nil {
			return fmt.Errorf("scs: rule %d antecedent: %w", r.ID, err)
		}
	}
	return nil
}

// fieldSelectors maps a compiled group's variable table to State field
// selectors, so pushes bind values without maps. A new rule-vocabulary
// variable must be wired here exactly once.
func fieldSelectors(vars []string) ([]int, error) {
	sel := make([]int, 0, len(vars))
	for _, name := range vars {
		switch name {
		case "BG":
			sel = append(sel, selBG)
		case "BG'":
			sel = append(sel, selBGPrime)
		case "IOB":
			sel = append(sel, selIOB)
		case "IOB'":
			sel = append(sel, selIOBPrime)
		case "u":
			sel = append(sel, selAction)
		default:
			return nil, fmt.Errorf("scs: rule set reads unknown variable %q", name)
		}
	}
	return sel, nil
}

// ruleFold is the Eq. 1 verdict fold over one lane's per-rule
// antecedent results: the consequent specialization (forbidden vs
// required action), the minimum body robustness with arg-min rule, the
// fired set, the worst-violation signed margin, and the H1/H2 hazard
// attribution, run once per lane by BatchStreamSet.PushLanes.
type ruleFold struct {
	rules    []Rule
	action   []float64
	required []bool
	isH1     []bool
}

func newRuleFold(rules []Rule) ruleFold {
	f := ruleFold{
		rules:    rules,
		action:   make([]float64, len(rules)),
		required: make([]bool, len(rules)),
		isH1:     make([]bool, len(rules)),
	}
	for i, r := range rules {
		f.action[i] = float64(r.Action)
		f.required[i] = r.Required
		f.isH1[i] = r.Hazard == trace.HazardH1
	}
	return f
}

// fold computes the verdict of active index k: u is the issued action
// as a float, sats[i][k]/robs[i][k] rule i's antecedent satisfaction and
// robustness, and fired an emptied scratch slice that violated rule IDs
// are appended to in rule order and returned.
func (f *ruleFold) fold(u float64, k int, sats [][]bool, robs [][]float64, fired []int) (StreamVerdict, []int) {
	v := StreamVerdict{Sat: true, MinRobust: math.Inf(1)}
	worst := math.Inf(1) // violation depth of the worst violated rule
	anyH1 := false
	for i := range f.rules {
		ls, lr := sats[i][k], robs[i][k]
		// Consequent inline: rob(u == a) = -|u - a|, negated for the
		// forbidden-action form ¬(u == a). Identical to compiling
		// Rule.Consequent, minus the dispatch.
		rs, rr := u == f.action[i], -math.Abs(u-f.action[i])
		if !f.required[i] {
			rs, rr = !rs, -rr
		}
		rob := rr // Eq. 1 body robustness: max(-lr, rr), finite operands
		if -lr > rob {
			rob = -lr
		}
		if rob < v.MinRobust {
			v.MinRobust = rob
			v.WorstRule = f.rules[i].ID
		}
		if !ls || rs {
			continue // body satisfied
		}
		v.Sat = false
		fired = append(fired, f.rules[i].ID)
		if f.isH1[i] {
			anyH1 = true
		}
		if m := -lr; m < worst {
			worst = m
			v.Rule = f.rules[i].ID
		}
	}
	if v.Sat {
		v.Margin, v.Rule = v.MinRobust, v.WorstRule
	} else {
		v.Margin = worst
		v.Hazard = trace.HazardH2
		if anyH1 {
			v.Hazard = trace.HazardH1
		}
	}
	return v, fired
}
