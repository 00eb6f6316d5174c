package monitor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// GuidelineConfig parameterizes the medical-guidelines baseline of
// Table III (the data-authenticity monitor of Young et al.): BG must
// stay in [70, 180] mg/dL, must not change faster than (−5, +3) mg/dL
// per cycle, and excursions beyond the patient's 10th/90th percentile
// must recover within α minutes.
type GuidelineConfig struct {
	BGLow     float64 // default 70
	BGHigh    float64 // default 180
	DeltaLow  float64 // default -5 (mg/dL per cycle)
	DeltaHigh float64 // default +3
	AlphaMin  float64 // recovery deadline, default 25 minutes
	// Lambda10/Lambda90 are the patient-specific BG percentiles of rules
	// φ3/φ4; derive them with PercentilesFromTraces.
	Lambda10 float64
	Lambda90 float64
}

func (c GuidelineConfig) withDefaults() GuidelineConfig {
	if c.BGLow == 0 {
		c.BGLow = 70
	}
	if c.BGHigh == 0 {
		c.BGHigh = 180
	}
	if c.DeltaLow == 0 {
		c.DeltaLow = -5
	}
	if c.DeltaHigh == 0 {
		c.DeltaHigh = 3
	}
	if c.AlphaMin == 0 {
		c.AlphaMin = 25
	}
	if c.Lambda10 == 0 {
		c.Lambda10 = 80
	}
	if c.Lambda90 == 0 {
		c.Lambda90 = 170
	}
	return c
}

// BatchGuideline is the Table III medical-guidelines monitor evaluated
// across many session lanes. Each lane keeps its own CGM history point
// and φ3/φ4 recovery timers, and every lane runs the same rules in the
// same order, so a lane's verdicts do not depend on the width.
// NewGuideline returns its one-lane view.
type BatchGuideline struct {
	cfg   GuidelineConfig
	lanes []guidelineLane
}

// guidelineLane is one session's Guideline state.
type guidelineLane struct {
	prevCGM    float64
	havePrev   bool
	belowSince float64 // time BG fell below λ10; NaN when not below
	aboveSince float64
}

var _ BatchMonitor = (*BatchGuideline)(nil)

// NewBatchGuideline builds the batched monitor.
func NewBatchGuideline(cfg GuidelineConfig) (*BatchGuideline, error) {
	cfg = cfg.withDefaults()
	if cfg.BGLow >= cfg.BGHigh {
		return nil, fmt.Errorf("monitor: guideline BG range [%v,%v] empty", cfg.BGLow, cfg.BGHigh)
	}
	if cfg.Lambda10 >= cfg.Lambda90 {
		return nil, fmt.Errorf("monitor: guideline percentiles λ10=%v ≥ λ90=%v", cfg.Lambda10, cfg.Lambda90)
	}
	b := &BatchGuideline{cfg: cfg}
	b.ResetLanes(1)
	return b, nil
}

// NewGuideline builds the per-session monitor: a one-lane
// BatchGuideline.
func NewGuideline(cfg GuidelineConfig) (*Lane, error) { return laneOf(NewBatchGuideline(cfg)) }

// Name implements BatchMonitor.
func (b *BatchGuideline) Name() string { return "Guideline" }

// ResetLanes implements BatchMonitor.
func (b *BatchGuideline) ResetLanes(n int) {
	if n != len(b.lanes) {
		b.lanes = make([]guidelineLane, n)
	}
	for i := range b.lanes {
		b.ResetLane(i)
	}
}

// ResetLane implements BatchMonitor.
func (b *BatchGuideline) ResetLane(lane int) {
	b.lanes[lane] = guidelineLane{belowSince: math.NaN(), aboveSince: math.NaN()}
}

// StepBatch implements BatchMonitor.
func (b *BatchGuideline) StepBatch(lanes []int, obs []Observation, out []Verdict) {
	for k, o := range obs {
		out[k] = b.lanes[lanes[k]].step(&b.cfg, o)
	}
}

// step runs one cycle of a lane. Timer bookkeeping for the φ3/φ4
// recovery deadlines happens before any rule fires, so an alarm from
// one rule never desynchronizes another rule's state.
func (g *guidelineLane) step(cfg *GuidelineConfig, obs Observation) Verdict {
	hadPrev, prev := g.havePrev, g.prevCGM
	g.prevCGM = obs.CGM
	g.havePrev = true

	if obs.CGM < cfg.Lambda10 {
		if math.IsNaN(g.belowSince) {
			g.belowSince = obs.TimeMin
		}
	} else {
		g.belowSince = math.NaN()
	}
	if obs.CGM > cfg.Lambda90 {
		if math.IsNaN(g.aboveSince) {
			g.aboveSince = obs.TimeMin
		}
	} else {
		g.aboveSince = math.NaN()
	}

	// φ1: hard range.
	if obs.CGM < cfg.BGLow {
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	}
	if obs.CGM > cfg.BGHigh {
		return Verdict{Alarm: true, Hazard: trace.HazardH2}
	}
	// φ2: rate of change per cycle.
	if hadPrev {
		delta := obs.CGM - prev
		if delta < cfg.DeltaLow {
			return Verdict{Alarm: true, Hazard: trace.HazardH1}
		}
		if delta > cfg.DeltaHigh {
			return Verdict{Alarm: true, Hazard: trace.HazardH2}
		}
	}
	// φ3: recovery deadline below λ10.
	if !math.IsNaN(g.belowSince) && obs.TimeMin-g.belowSince >= cfg.AlphaMin {
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	}
	// φ4: recovery deadline above λ90.
	if !math.IsNaN(g.aboveSince) && obs.TimeMin-g.aboveSince >= cfg.AlphaMin {
		return Verdict{Alarm: true, Hazard: trace.HazardH2}
	}
	return Verdict{}
}

// PercentilesFromTraces computes the 10th and 90th percentile of the
// sensed glucose across fault-free traces, the λ10/λ90 of Table III.
func PercentilesFromTraces(traces []*trace.Trace) (lambda10, lambda90 float64, err error) {
	var bgs []float64
	for _, tr := range traces {
		bgs = append(bgs, tr.CGMSeries()...)
	}
	if len(bgs) == 0 {
		return 0, 0, fmt.Errorf("monitor: no samples for percentile estimation")
	}
	sort.Float64s(bgs)
	return percentile(bgs, 0.10), percentile(bgs, 0.90), nil
}

// percentile returns the p-quantile of sorted data (linear interpolation).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
