package monitor

import (
	"fmt"

	"repro/internal/trace"
)

// MPCConfig parameterizes the model-predictive baseline monitor of
// Section IV-C2, built on the Bergman & Sherwin minimal model (Eq. 6):
//
//	dBG/dt = −(GEZI + IEFF)·BG + EGP + RA(t)
//
// The monitor integrates a population-parameter copy of this model
// forward over the prediction horizon, assuming the issued command is
// sustained, and alarms when the predicted BG leaves [70, 180] mg/dL.
type MPCConfig struct {
	GEZI float64 // glucose effectiveness at zero insulin, 1/min (default 0.0022)
	EGP  float64 // endogenous glucose production, mg/dL/min (default 1.33)
	SI   float64 // insulin sensitivity, mL/µU/min (default 6.5e-4)
	CI   float64 // insulin clearance, mL/min (default 2010)
	Tau1 float64 // SC insulin time constant, min (default 49)
	Tau2 float64 // plasma insulin time constant, min (default 47)
	P2   float64 // insulin action rate, 1/min (default 0.0106)

	HorizonMin float64 // prediction horizon, minutes (default 60)
	BGLow      float64 // default 70
	BGHigh     float64 // default 180
	Basal      float64 // scheduled basal for steady-state init, U/h (required)
}

func (c MPCConfig) withDefaults() (MPCConfig, error) {
	if c.Basal <= 0 {
		return c, fmt.Errorf("monitor: mpc needs positive basal")
	}
	if c.GEZI == 0 {
		c.GEZI = 0.0022
	}
	if c.EGP == 0 {
		c.EGP = 1.33
	}
	if c.SI == 0 {
		c.SI = 6.5e-4
	}
	if c.CI == 0 {
		c.CI = 2010
	}
	if c.Tau1 == 0 {
		c.Tau1 = 49
	}
	if c.Tau2 == 0 {
		c.Tau2 = 47
	}
	if c.P2 == 0 {
		c.P2 = 0.0106
	}
	if c.HorizonMin == 0 {
		c.HorizonMin = 60
	}
	if c.BGLow == 0 {
		c.BGLow = 70
	}
	if c.BGHigh == 0 {
		c.BGHigh = 180
	}
	return c, nil
}

// BatchMPC is the model-predictive baseline monitor evaluated across
// many session lanes. Each lane tracks its own copy of the insulin
// compartments (driven by the issued rates) and forward-simulates the
// Bergman model each cycle; all lanes share one parameter set, whose
// Basal sets the steady state every lane starts from. NewMPC returns
// its one-lane view.
type BatchMPC struct {
	cfg   MPCConfig
	lanes []mpcLane
}

// mpcLane is one session's monitor-side insulin model state.
type mpcLane struct {
	isc, ip, ieff float64
}

var _ BatchMonitor = (*BatchMPC)(nil)

// NewBatchMPC builds the batched monitor.
func NewBatchMPC(cfg MPCConfig) (*BatchMPC, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	b := &BatchMPC{cfg: cfg}
	b.ResetLanes(1)
	return b, nil
}

// NewMPC builds the per-session monitor: a one-lane BatchMPC.
func NewMPC(cfg MPCConfig) (*Lane, error) { return laneOf(NewBatchMPC(cfg)) }

// Name implements BatchMonitor.
func (b *BatchMPC) Name() string { return "MPC" }

// UsesBasal implements BasalSensitive: the monitor's insulin
// compartments initialize at the scheduled-basal steady state, so its
// projections assume the recorded loop ran at that basal — which a
// pre-basal (Basal == 0) trace cannot confirm.
func (b *BatchMPC) UsesBasal() bool { return true }

// ResetLanes implements BatchMonitor.
func (b *BatchMPC) ResetLanes(n int) {
	if n != len(b.lanes) {
		b.lanes = make([]mpcLane, n)
	}
	for i := range b.lanes {
		b.ResetLane(i)
	}
}

// ResetLane implements BatchMonitor: the lane's insulin compartments
// start at the basal steady state.
func (b *BatchMPC) ResetLane(lane int) {
	id := b.cfg.Basal * 1e6 / 60 // µU/min
	ipStar := id / b.cfg.CI
	b.lanes[lane] = mpcLane{isc: ipStar, ip: ipStar, ieff: b.cfg.SI * ipStar}
}

// StepBatch implements BatchMonitor.
func (b *BatchMPC) StepBatch(lanes []int, obs []Observation, out []Verdict) {
	for k, o := range obs {
		out[k] = b.lanes[lanes[k]].step(&b.cfg, o)
	}
}

// advance integrates the monitor's insulin + glucose model by dtMin under
// a constant rate, starting from glucose bg; returns the ending glucose
// and updates the given insulin state in place.
func (c *MPCConfig) advance(bg *float64, isc, ip, ieff *float64, rateUPerH, dtMin float64) {
	const h = 1.0 // 1-minute Euler steps are ample for this smooth model
	id := rateUPerH * 1e6 / 60
	steps := int(dtMin/h + 0.5)
	for k := 0; k < steps; k++ {
		dIsc := -*isc/c.Tau1 + id/(c.Tau1*c.CI)
		dIp := -(*ip - *isc) / c.Tau2
		dIeff := -c.P2**ieff + c.P2*c.SI**ip
		dBG := -(c.GEZI+*ieff)**bg + c.EGP
		*isc += h * dIsc
		*ip += h * dIp
		*ieff += h * dIeff
		*bg += h * dBG
		if *bg < 1 {
			*bg = 1
		}
	}
}

// step runs one cycle of a lane: predict BG after executing the command
// for the horizon; alarm when the prediction exits the safe range.
func (l *mpcLane) step(cfg *MPCConfig, obs Observation) Verdict {
	// Predict from the current observation with a scratch copy of the
	// insulin state.
	bg := obs.CGM
	isc, ip, ieff := l.isc, l.ip, l.ieff
	cfg.advance(&bg, &isc, &ip, &ieff, obs.Rate, cfg.HorizonMin)

	// Commit the monitor's insulin state by one cycle at the issued rate
	// (the best estimate of what will be delivered).
	cfg.advance(new(float64), &l.isc, &l.ip, &l.ieff, obs.Rate, obs.CycleMin)

	switch {
	case bg < cfg.BGLow:
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	case bg > cfg.BGHigh:
		return Verdict{Alarm: true, Hazard: trace.HazardH2}
	default:
		return Verdict{}
	}
}
