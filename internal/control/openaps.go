package control

import (
	"fmt"
	"math"
)

// Stage marks where in a control cycle a perturbation hook runs.
type Stage int

// Perturbation stages: before the command is computed (inputs and
// internal estimates are live) and after (the output command is live).
const (
	// StagePre runs after the controller refreshed its internal
	// variables from the cycle inputs, before it computes the command.
	StagePre Stage = iota + 1
	// StagePost runs after the command has been computed, with the
	// "rate" variable holding the output.
	StagePost
)

// PerturbFunc mutates named controller variables in place. It is the
// attachment point for the fault-injection engine.
type PerturbFunc func(stage Stage, vars map[string]*float64)

// OpenAPSConfig parameterizes the OpenAPS-style controller.
type OpenAPSConfig struct {
	Basal        float64 // scheduled basal rate, U/h (required, > 0)
	ISF          float64 // insulin sensitivity factor, mg/dL per U (required)
	TargetBG     float64 // control target, mg/dL (default 110)
	TargetLow    float64 // lower bound of the target range (default 100)
	TargetHigh   float64 // upper bound of the target range (default 120)
	LGSThreshold float64 // low-glucose suspend threshold (default 70)
	MaxBasal     float64 // temp-basal ceiling, U/h (default 4x basal)
	MaxIOB       float64 // IOB ceiling for positive corrections, U (default 2x basal)
	DIA          float64 // duration of insulin action, min (default 300)
	PeakT        float64 // insulin activity peak, min (default 75)
}

func (c OpenAPSConfig) withDefaults() (OpenAPSConfig, error) {
	if c.Basal <= 0 {
		return c, fmt.Errorf("control: openaps needs positive basal, got %v", c.Basal)
	}
	if c.ISF <= 0 {
		return c, fmt.Errorf("control: openaps needs positive ISF, got %v", c.ISF)
	}
	if c.TargetBG == 0 {
		c.TargetBG = 110
	}
	if c.TargetLow == 0 {
		c.TargetLow = 100
	}
	if c.TargetHigh == 0 {
		c.TargetHigh = 120
	}
	if c.LGSThreshold == 0 {
		c.LGSThreshold = 70
	}
	if c.MaxBasal == 0 {
		c.MaxBasal = 4 * c.Basal
	}
	if c.MaxIOB == 0 {
		c.MaxIOB = 3 * c.Basal
	}
	if c.DIA == 0 {
		c.DIA = 300
	}
	if c.PeakT == 0 {
		c.PeakT = 75
	}
	return c, nil
}

// OpenAPS is a Control-to-Target temp-basal controller modeled on the
// oref0 determine-basal algorithm: it projects an eventual BG from the
// current glucose, net IOB, and the recent deviation between observed
// and insulin-explained glucose change, then adjusts a temporary basal
// rate toward the target, with low-glucose suspend, max-basal, and
// max-IOB safety clamps.
type OpenAPS struct {
	cfg     OpenAPSConfig
	tracker *IOBTracker

	vars    map[string]*float64
	perturb PerturbFunc

	// Named internal state (fault-injectable).
	glucose     float64
	prevGlucose float64
	iob         float64
	isf         float64
	eventualBG  float64
	rate        float64

	havePrev bool
	lastRate float64
}

var _ Controller = (*OpenAPS)(nil)

// NewOpenAPS constructs the controller.
func NewOpenAPS(cfg OpenAPSConfig) (*OpenAPS, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	curve, err := NewExponentialCurve(cfg.DIA, cfg.PeakT)
	if err != nil {
		return nil, fmt.Errorf("control: openaps insulin curve: %w", err)
	}
	c := &OpenAPS{
		cfg:     cfg,
		tracker: NewIOBTracker(curve, cfg.Basal),
		isf:     cfg.ISF,
	}
	c.vars = map[string]*float64{
		"glucose":     &c.glucose,
		"iob":         &c.iob,
		"isf":         &c.isf,
		"eventual_bg": &c.eventualBG,
		"rate":        &c.rate,
	}
	c.lastRate = cfg.Basal
	return c, nil
}

// Name implements Controller.
func (c *OpenAPS) Name() string { return "openaps" }

// Vars implements Controller.
func (c *OpenAPS) Vars() map[string]*float64 { return c.vars }

// SetPerturb attaches the fault-injection hook (nil detaches).
func (c *OpenAPS) SetPerturb(h PerturbFunc) { c.perturb = h }

// Decide implements Controller.
func (c *OpenAPS) Decide(in Input) Output {
	// Refresh fault-injectable inputs and estimates.
	c.glucose = in.CGM
	var activity float64
	c.iob, activity = c.tracker.IOBActivity()
	c.isf = c.cfg.ISF
	if c.perturb != nil {
		c.perturb(StagePre, c.vars)
	}

	cycle := in.CycleMin
	if cycle <= 0 {
		cycle = 5
	}
	delta := 0.0
	if c.havePrev {
		delta = c.glucose - c.prevGlucose
	}
	bgi := -activity * c.isf * cycle // insulin-explained change this cycle
	deviation := (30 / cycle) * (delta - bgi)
	naive := c.glucose - c.iob*c.isf
	c.eventualBG = naive + deviation

	switch {
	case c.glucose < c.cfg.LGSThreshold:
		// Low-glucose suspend.
		c.rate = 0
	case c.eventualBG < c.cfg.TargetLow:
		insulinReq := (c.eventualBG - c.cfg.TargetBG) / c.isf // negative
		r := c.cfg.Basal + 2*insulinReq
		c.rate = math.Max(0, r)
	case c.eventualBG > c.cfg.TargetHigh:
		if c.iob >= c.cfg.MaxIOB {
			c.rate = c.cfg.Basal // IOB cap reached: no extra insulin
		} else {
			insulinReq := (c.eventualBG - c.cfg.TargetBG) / c.isf
			if insulinReq+c.iob > c.cfg.MaxIOB {
				insulinReq = c.cfg.MaxIOB - c.iob
			}
			r := c.cfg.Basal + 2*insulinReq
			c.rate = math.Min(r, c.cfg.MaxBasal)
		}
	default:
		c.rate = c.cfg.Basal
	}

	if c.perturb != nil {
		c.perturb(StagePost, c.vars)
	}
	if c.rate < 0 {
		c.rate = 0
	}
	c.prevGlucose = c.glucose
	c.havePrev = true
	c.lastRate = c.rate
	return Output{RateUPerH: c.rate, IOB: c.iob}
}

// RecordDelivery implements Controller.
func (c *OpenAPS) RecordDelivery(rateUPerH, dtMin float64) {
	c.tracker.Record(rateUPerH, dtMin)
}

// Reset implements Controller.
func (c *OpenAPS) Reset() {
	c.tracker.Reset()
	c.havePrev = false
	c.prevGlucose = 0
	c.glucose = 0
	c.iob = 0
	c.isf = c.cfg.ISF
	c.eventualBG = 0
	c.rate = 0
	c.lastRate = c.cfg.Basal
}
