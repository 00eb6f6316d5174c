package monitor

import (
	"fmt"
	"math"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// GuidelineOracle is the scalar Table III monitor BatchGuideline
// replaced: one session's state in plain fields and the rule body
// inline. It is test code, the reference the batch differential
// (baseline_batch_test.go) compares every lane against, verdict for
// verdict and snapshot byte for byte.
type GuidelineOracle struct {
	cfg GuidelineConfig

	prevCGM    float64
	havePrev   bool
	belowSince float64 // time BG fell below λ10; NaN when not below
	aboveSince float64
}

var (
	_ Monitor              = (*GuidelineOracle)(nil)
	_ snapshot.Snapshotter = (*GuidelineOracle)(nil)
)

// NewGuidelineOracle builds the scalar monitor.
func NewGuidelineOracle(cfg GuidelineConfig) (*GuidelineOracle, error) {
	cfg = cfg.withDefaults()
	if cfg.BGLow >= cfg.BGHigh {
		return nil, fmt.Errorf("monitor: guideline BG range [%v,%v] empty", cfg.BGLow, cfg.BGHigh)
	}
	if cfg.Lambda10 >= cfg.Lambda90 {
		return nil, fmt.Errorf("monitor: guideline percentiles λ10=%v ≥ λ90=%v", cfg.Lambda10, cfg.Lambda90)
	}
	g := &GuidelineOracle{cfg: cfg}
	g.Reset()
	return g, nil
}

// Name implements Monitor.
func (g *GuidelineOracle) Name() string { return "Guideline" }

// Reset implements Monitor.
func (g *GuidelineOracle) Reset() {
	g.prevCGM = 0
	g.havePrev = false
	g.belowSince = math.NaN()
	g.aboveSince = math.NaN()
}

// Step implements Monitor.
func (g *GuidelineOracle) Step(obs Observation) Verdict {
	hadPrev, prev := g.havePrev, g.prevCGM
	g.prevCGM = obs.CGM
	g.havePrev = true

	if obs.CGM < g.cfg.Lambda10 {
		if math.IsNaN(g.belowSince) {
			g.belowSince = obs.TimeMin
		}
	} else {
		g.belowSince = math.NaN()
	}
	if obs.CGM > g.cfg.Lambda90 {
		if math.IsNaN(g.aboveSince) {
			g.aboveSince = obs.TimeMin
		}
	} else {
		g.aboveSince = math.NaN()
	}

	// φ1: hard range.
	if obs.CGM < g.cfg.BGLow {
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	}
	if obs.CGM > g.cfg.BGHigh {
		return Verdict{Alarm: true, Hazard: trace.HazardH2}
	}
	// φ2: rate of change per cycle.
	if hadPrev {
		delta := obs.CGM - prev
		if delta < g.cfg.DeltaLow {
			return Verdict{Alarm: true, Hazard: trace.HazardH1}
		}
		if delta > g.cfg.DeltaHigh {
			return Verdict{Alarm: true, Hazard: trace.HazardH2}
		}
	}
	// φ3: recovery deadline below λ10.
	if !math.IsNaN(g.belowSince) && obs.TimeMin-g.belowSince >= g.cfg.AlphaMin {
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	}
	// φ4: recovery deadline above λ90.
	if !math.IsNaN(g.aboveSince) && obs.TimeMin-g.aboveSince >= g.cfg.AlphaMin {
		return Verdict{Alarm: true, Hazard: trace.HazardH2}
	}
	return Verdict{}
}

// SnapshotState implements snapshot.Snapshotter: the CGM history point
// and the two duration timers (NaN while inactive, preserved exactly).
func (g *GuidelineOracle) SnapshotState(enc *snapshot.Encoder) {
	enc.Float64(g.prevCGM)
	enc.Bool(g.havePrev)
	enc.Float64(g.belowSince)
	enc.Float64(g.aboveSince)
}

// RestoreState implements snapshot.Snapshotter.
func (g *GuidelineOracle) RestoreState(dec *snapshot.Decoder) error {
	prevCGM := dec.Float64()
	havePrev := dec.Bool()
	belowSince := dec.Float64()
	aboveSince := dec.Float64()
	if err := dec.Err(); err != nil {
		return err
	}
	g.prevCGM = prevCGM
	g.havePrev = havePrev
	g.belowSince = belowSince
	g.aboveSince = aboveSince
	return nil
}

// MPCOracle is the scalar model-predictive monitor BatchMPC replaced:
// one session's insulin compartments in plain fields and its own
// integrator. Like GuidelineOracle it is test code, the reference of
// the batch differential.
type MPCOracle struct {
	cfg MPCConfig

	isc, ip, ieff float64 // monitor-side insulin model state
}

var (
	_ Monitor              = (*MPCOracle)(nil)
	_ snapshot.Snapshotter = (*MPCOracle)(nil)
	_ BasalSensitive       = (*MPCOracle)(nil)
)

// NewMPCOracle builds the scalar monitor.
func NewMPCOracle(cfg MPCConfig) (*MPCOracle, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := &MPCOracle{cfg: cfg}
	m.Reset()
	return m, nil
}

// Name implements Monitor.
func (m *MPCOracle) Name() string { return "MPC" }

// UsesBasal implements BasalSensitive.
func (m *MPCOracle) UsesBasal() bool { return true }

// Reset implements Monitor.
func (m *MPCOracle) Reset() {
	// Start the insulin compartments at the basal steady state.
	id := m.cfg.Basal * 1e6 / 60 // µU/min
	ipStar := id / m.cfg.CI
	m.isc = ipStar
	m.ip = ipStar
	m.ieff = m.cfg.SI * ipStar
}

// advance integrates the monitor's insulin + glucose model by dtMin under
// a constant rate, starting from glucose bg; returns the ending glucose
// and updates the given insulin state in place.
func (m *MPCOracle) advance(bg *float64, isc, ip, ieff *float64, rateUPerH, dtMin float64) {
	const h = 1.0
	id := rateUPerH * 1e6 / 60
	steps := int(dtMin/h + 0.5)
	for k := 0; k < steps; k++ {
		dIsc := -*isc/m.cfg.Tau1 + id/(m.cfg.Tau1*m.cfg.CI)
		dIp := -(*ip - *isc) / m.cfg.Tau2
		dIeff := -m.cfg.P2**ieff + m.cfg.P2*m.cfg.SI**ip
		dBG := -(m.cfg.GEZI+*ieff)**bg + m.cfg.EGP
		*isc += h * dIsc
		*ip += h * dIp
		*ieff += h * dIeff
		*bg += h * dBG
		if *bg < 1 {
			*bg = 1
		}
	}
}

// Step implements Monitor.
func (m *MPCOracle) Step(obs Observation) Verdict {
	bg := obs.CGM
	isc, ip, ieff := m.isc, m.ip, m.ieff
	m.advance(&bg, &isc, &ip, &ieff, obs.Rate, m.cfg.HorizonMin)
	m.advance(new(float64), &m.isc, &m.ip, &m.ieff, obs.Rate, obs.CycleMin)

	switch {
	case bg < m.cfg.BGLow:
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	case bg > m.cfg.BGHigh:
		return Verdict{Alarm: true, Hazard: trace.HazardH2}
	default:
		return Verdict{}
	}
}

// SnapshotState implements snapshot.Snapshotter: the monitor-side
// insulin compartments.
func (m *MPCOracle) SnapshotState(enc *snapshot.Encoder) {
	enc.Float64(m.isc)
	enc.Float64(m.ip)
	enc.Float64(m.ieff)
}

// RestoreState implements snapshot.Snapshotter.
func (m *MPCOracle) RestoreState(dec *snapshot.Decoder) error {
	isc := dec.Float64()
	ip := dec.Float64()
	ieff := dec.Float64()
	if err := dec.Err(); err != nil {
		return err
	}
	m.isc, m.ip, m.ieff = isc, ip, ieff
	return nil
}
