package stllearn

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/optimize"
	"repro/internal/scs"
	"repro/internal/stl"
	"repro/internal/trace"
)

// Config tunes threshold learning.
type Config struct {
	Loss   Loss       // default TMEE
	Params scs.Params // rule evaluation constants
	// Lookahead is the prediction horizon in control cycles: samples up
	// to Lookahead cycles before the first hazardous sample (and during
	// the hazard) count as negative examples. Zero means 24 cycles (2 h),
	// matching the paper's ~2 h average reaction time target.
	Lookahead int
	// MaxIterations bounds the per-rule L-BFGS-B run (default 150).
	MaxIterations int
	// TrimQuantile drops the most extreme fraction of examples on the
	// boundary side before optimizing (default 0.02): a single stray
	// sample far from the bulk would otherwise drag the tight threshold
	// with it. Negative disables trimming.
	TrimQuantile float64
}

func (c Config) withDefaults() Config {
	if c.Loss == nil {
		c.Loss = TMEE{}
	}
	c.Params = c.Params.WithDefaults()
	if c.Lookahead == 0 {
		c.Lookahead = 24
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 150
	}
	if c.TrimQuantile == 0 {
		c.TrimQuantile = 0.02
	}
	return c
}

// RuleReport describes the learning outcome for one rule.
type RuleReport struct {
	RuleID      int
	Examples    int
	Beta        float64
	UsedDefault bool // true when no examples matched and the default held
	Converged   bool
	LossValue   float64
}

// Report aggregates per-rule outcomes.
type Report struct {
	Rules []RuleReport
	// TotalExamples counts harvested negative examples across rules.
	TotalExamples int
}

// ExtractExamples harvests the learnable-variable values from hazardous
// traces for one rule: samples within the prediction window before (and
// during) a hazard of the rule's type, where the rule's fixed context
// holds and the constrained action was issued (or, for required-action
// rules, withheld). These are the negative examples of Section IV-C1.
func ExtractExamples(r scs.Rule, traces []*trace.Trace, cfg Config) []float64 {
	cfg = cfg.withDefaults()
	lookback := cfg.Lookahead
	if r.HarvestLookback > 0 {
		lookback = r.HarvestLookback
	}
	var out []float64
	for _, tr := range traces {
		h := tr.FirstHazardStep()
		if h < 0 || tr.DominantHazard() != r.Hazard {
			continue
		}
		lo := h - lookback
		if lo < 0 {
			lo = 0
		}
		if r.HarvestHazardOnly {
			lo = h
		}
		for i := lo; i < tr.Len(); i++ {
			s := &tr.Samples[i]
			if s.Hazard == trace.HazardNone && s.Step > h {
				// Past the hazard and recovered: stop harvesting.
				break
			}
			if r.HarvestHazardOnly && s.Hazard == trace.HazardNone {
				continue
			}
			st := scs.StateFromSample(s)
			if !r.ContextHolds(st, cfg.Params) {
				continue
			}
			actionMatch := st.Action == r.Action
			if r.Required {
				actionMatch = st.Action != r.Action
			}
			if !actionMatch {
				continue
			}
			out = append(out, r.LearnValue(st))
		}
	}
	return out
}

// LearnRule fits one rule's β to its examples with L-BFGS-B. The margin
// convention follows the predicate direction: for "µ < β" rules the
// margin of an example µ is r = β − µ; for "µ > β" rules r = µ − β. With
// a tight loss, β lands just past the example set's extreme, so all
// hazardous contexts satisfy the predicate (and trigger the monitor)
// with minimal slack. It rejects a NaN or infinite example: one would
// make every loss value NaN, and a NaN β never alarms.
func LearnRule(r scs.Rule, examples []float64, cfg Config) (RuleReport, error) {
	cfg = cfg.withDefaults()
	rep := RuleReport{RuleID: r.ID, Examples: len(examples), Beta: r.Default}
	if len(examples) == 0 {
		rep.UsedDefault = true
		return rep, nil
	}
	for i, mu := range examples {
		if math.IsNaN(mu) || math.IsInf(mu, 0) {
			return rep, fmt.Errorf("stllearn: rule %d: non-finite example %v at index %d", r.ID, mu, i)
		}
	}
	lessThan := r.LearnOp == stl.OpLT || r.LearnOp == stl.OpLE
	trim := cfg.TrimQuantile
	if r.HarvestTrim > 0 {
		trim = r.HarvestTrim
	}
	if !lessThan && r.HarvestTrim == 0 {
		// "µ > β" rules: β sits below the example bulk, and every trimmed
		// low example is a hazardous state the monitor would then miss.
		// Missing a hazard costs more than an extra alarm, so only
		// explicit per-rule overrides trim on this side.
		trim = 0
	}
	examples = trimExtremes(examples, trim, lessThan)
	objective := func(x []float64) float64 {
		beta := x[0]
		var sum float64
		for _, mu := range examples {
			rr := beta - mu
			if !lessThan {
				rr = mu - beta
			}
			sum += cfg.Loss.Value(rr)
		}
		return sum / float64(len(examples))
	}
	// Start from the example mean, projected into bounds.
	var mean float64
	for _, mu := range examples {
		mean += mu
	}
	mean /= float64(len(examples))

	res, err := optimize.Minimize(optimize.Problem{
		F:     objective,
		Lower: []float64{r.Lo},
		Upper: []float64{r.Hi},
	}, []float64{mean}, optimize.Options{MaxIterations: cfg.MaxIterations})
	if err != nil {
		return rep, fmt.Errorf("stllearn: rule %d: %w", r.ID, err)
	}
	rep.Beta = res.X[0]
	rep.Converged = res.Converged
	rep.LossValue = res.F
	return rep, nil
}

// trimExtremes drops the q-quantile of examples on the boundary side:
// the top for "µ < β" rules (whose β sits above the examples), the
// bottom for "µ > β" rules. The input is not modified.
func trimExtremes(examples []float64, q float64, lessThan bool) []float64 {
	if q <= 0 || len(examples) < 10 {
		return examples
	}
	sorted := append([]float64(nil), examples...)
	sort.Float64s(sorted)
	drop := int(q * float64(len(sorted)))
	if drop == 0 {
		return sorted
	}
	if lessThan {
		return sorted[:len(sorted)-drop]
	}
	return sorted[drop:]
}

// Learn fits thresholds for every rule from the given labeled traces.
// The rules are fitted on runtime.GOMAXPROCS(0) goroutines; each fit
// reads only its own rule's examples, so the thresholds and the report
// have the same bits at any worker count. The error is the first failing
// rule's, in rule order.
func Learn(rules []scs.Rule, traces []*trace.Trace, cfg Config) (scs.Thresholds, Report, error) {
	return learn(rules, traces, cfg, runtime.GOMAXPROCS(0))
}

// learn is Learn with an explicit worker count.
func learn(rules []scs.Rule, traces []*trace.Trace, cfg Config, workers int) (scs.Thresholds, Report, error) {
	reps, errs := fit(rules, [][]*trace.Trace{traces}, cfg, workers)
	for _, err := range errs {
		if err != nil {
			return nil, Report{}, err
		}
	}
	th, report := join(reps)
	sort.Slice(report.Rules, func(i, j int) bool { return report.Rules[i].RuleID < report.Rules[j].RuleID })
	return th, report, nil
}

// LearnPerPatient fits patient-specific thresholds: traces are grouped by
// PatientID and each group is learned independently, the paper's
// patient-specific CAWT configuration (Table VIII). Every patient's rules
// are fitted on runtime.GOMAXPROCS(0) goroutines, with Learn's bits. The
// error names the first failing patient in trace order.
func LearnPerPatient(rules []scs.Rule, traces []*trace.Trace, cfg Config) (map[string]scs.Thresholds, error) {
	return learnPerPatient(rules, traces, cfg, runtime.GOMAXPROCS(0))
}

// learnPerPatient is LearnPerPatient with an explicit worker count.
func learnPerPatient(rules []scs.Rule, traces []*trace.Trace, cfg Config, workers int) (map[string]scs.Thresholds, error) {
	var ids []string
	var groups [][]*trace.Trace
	group := make(map[string]int)
	for _, tr := range traces {
		g, ok := group[tr.PatientID]
		if !ok {
			g = len(groups)
			group[tr.PatientID] = g
			ids = append(ids, tr.PatientID)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], tr)
	}
	reps, errs := fit(rules, groups, cfg, workers)
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("stllearn: patient %s: %w", ids[k/len(rules)], err)
		}
	}
	out := make(map[string]scs.Thresholds, len(groups))
	for g, id := range ids {
		out[id], _ = join(reps[g*len(rules) : (g+1)*len(rules)])
	}
	return out, nil
}

// fit extracts the examples of every rule from every group of traces
// and fits the rule to them, spreading the fits over workers goroutines,
// the caller's among them. Fit k is rule k mod len(rules) on group
// k / len(rules); its report and error land at index k.
func fit(rules []scs.Rule, groups [][]*trace.Trace, cfg Config, workers int) ([]RuleReport, []error) {
	cfg = cfg.withDefaults()
	n := len(groups) * len(rules)
	reps := make([]RuleReport, n)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
			r := rules[k%len(rules)]
			reps[k], errs[k] = LearnRule(r, ExtractExamples(r, groups[k/len(rules)], cfg), cfg)
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return reps, errs
}

// join collects one group's reports, in rule order, into its thresholds
// and report.
func join(reps []RuleReport) (scs.Thresholds, Report) {
	th := make(scs.Thresholds, len(reps))
	var report Report
	for _, rep := range reps {
		th[rep.RuleID] = rep.Beta
		report.Rules = append(report.Rules, rep)
		report.TotalExamples += rep.Examples
	}
	return th, report
}

// Folds splits traces into k cross-validation folds by round-robin,
// preserving determinism. Fold i's test set is folds[i]; its training
// set is every other fold. The paper uses 4-fold cross-validation
// (Section V-B).
func Folds(traces []*trace.Trace, k int) [][]*trace.Trace {
	if k < 2 {
		k = 2
	}
	folds := make([][]*trace.Trace, k)
	for i, tr := range traces {
		folds[i%k] = append(folds[i%k], tr)
	}
	return folds
}

// TrainingSet concatenates every fold except test.
func TrainingSet(folds [][]*trace.Trace, test int) []*trace.Trace {
	var out []*trace.Trace
	for i, f := range folds {
		if i == test {
			continue
		}
		out = append(out, f...)
	}
	return out
}
