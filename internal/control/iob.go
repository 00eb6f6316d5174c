// Package control defines the APS controller abstraction shared by the
// OpenAPS-style and Basal-Bolus controllers, plus the insulin-on-board
// (IOB) bookkeeping both the controllers and the safety monitors use.
package control

import (
	"fmt"
	"math"
)

// InsulinCurve models the residual fraction of an insulin dose that is
// still active t minutes after delivery (1 at t=0 decaying to 0 at the
// duration of insulin action), and the corresponding activity density.
type InsulinCurve interface {
	// IOBFraction returns the remaining active fraction at age t minutes.
	IOBFraction(tMin float64) float64
	// Activity returns the instantaneous activity density (fraction per
	// minute) at age t minutes; the integral of Activity over [0, DIA]
	// is 1.
	Activity(tMin float64) float64
	// DIA returns the duration of insulin action in minutes.
	DIA() float64
}

// ExponentialCurve is the oref0 exponential insulin activity model with a
// configurable peak time and duration of insulin action.
type ExponentialCurve struct {
	dia  float64 // duration of insulin action, min
	peak float64 // activity peak time, min
	tau  float64
	a    float64
	s    float64
}

var _ InsulinCurve = (*ExponentialCurve)(nil)

// NewExponentialCurve builds the oref0 exponential curve. Typical values:
// dia 300 min, peak 75 min (rapid-acting insulin).
func NewExponentialCurve(diaMin, peakMin float64) (*ExponentialCurve, error) {
	if diaMin <= 0 || peakMin <= 0 || peakMin >= diaMin/2 {
		return nil, fmt.Errorf("control: invalid curve dia=%v peak=%v (need 0 < peak < dia/2)", diaMin, peakMin)
	}
	tau := peakMin * (1 - peakMin/diaMin) / (1 - 2*peakMin/diaMin)
	a := 2 * tau / diaMin
	s := 1 / (1 - a + (1+a)*math.Exp(-diaMin/tau))
	return &ExponentialCurve{dia: diaMin, peak: peakMin, tau: tau, a: a, s: s}, nil
}

// DIA implements InsulinCurve.
func (c *ExponentialCurve) DIA() float64 { return c.dia }

// Activity implements InsulinCurve.
func (c *ExponentialCurve) Activity(t float64) float64 {
	if t < 0 || t > c.dia {
		return 0
	}
	return c.s / (c.tau * c.tau) * t * (1 - t/c.dia) * math.Exp(-t/c.tau)
}

// IOBFraction implements InsulinCurve.
func (c *ExponentialCurve) IOBFraction(t float64) float64 {
	if t < 0 {
		return 1
	}
	if t > c.dia {
		return 0
	}
	f := 1 - c.s*(1-c.a)*((t*t/(c.tau*c.dia*(1-c.a))-t/c.tau-1)*math.Exp(-t/c.tau)+1)
	// Guard the tail against floating-point underrun.
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// BilinearCurve is the legacy bilinear IOB model: activity rises linearly
// to a peak at 0.25·DIA and falls linearly to zero at DIA.
type BilinearCurve struct {
	dia float64
}

var _ InsulinCurve = (*BilinearCurve)(nil)

// NewBilinearCurve builds a bilinear curve with the given duration of
// insulin action in minutes.
func NewBilinearCurve(diaMin float64) (*BilinearCurve, error) {
	if diaMin <= 0 {
		return nil, fmt.Errorf("control: invalid bilinear dia %v", diaMin)
	}
	return &BilinearCurve{dia: diaMin}, nil
}

// DIA implements InsulinCurve.
func (c *BilinearCurve) DIA() float64 { return c.dia }

// Activity implements InsulinCurve.
func (c *BilinearCurve) Activity(t float64) float64 {
	if t < 0 || t > c.dia {
		return 0
	}
	peak := 0.25 * c.dia
	// Triangle with unit area: height = 2/dia.
	h := 2 / c.dia
	if t <= peak {
		return h * t / peak
	}
	return h * (c.dia - t) / (c.dia - peak)
}

// IOBFraction implements InsulinCurve.
func (c *BilinearCurve) IOBFraction(t float64) float64 {
	if t < 0 {
		return 1
	}
	if t > c.dia {
		return 0
	}
	peak := 0.25 * c.dia
	h := 2 / c.dia
	if t <= peak {
		// 1 - integral of rising edge.
		return 1 - h*t*t/(2*peak)
	}
	rising := h * peak / 2
	fallT := t - peak
	fallW := c.dia - peak
	fallArea := h*fallT - h*fallT*fallT/(2*fallW)
	f := 1 - rising - fallArea
	if f < 0 {
		return 0
	}
	return f
}

// dose is one net insulin delivery event relative to the scheduled basal.
type dose struct {
	timeMin float64
	units   float64 // net units (can be negative when below basal)
}

// IOBTracker accumulates insulin deliveries and reports net IOB and
// activity relative to the patient's scheduled basal rate, the same
// "net IOB" convention OpenAPS uses. Doses older than the curve's DIA
// are pruned.
//
// The tracker memoizes curve terms by dose age: memo[k] holds the
// IOBFraction and Activity last computed for the dose k positions back
// from the newest, each keyed by the exact float64 age it was computed
// at. On a fixed control cycle a slot's age repeats every cycle, so each
// transcendental runs once per distinct age instead of once per dose per
// call; any other age (irregular cycles, NaN) misses and recomputes.
// Because the curve is a pure function of the age, a hit returns the
// bits a fresh evaluation would, and the memo is not snapshot state.
type IOBTracker struct {
	curve InsulinCurve
	basal float64 // scheduled basal, U/h
	doses []dose
	now   float64
	memo  []curveTerm
}

// curveTerm is one memo slot: a curve value and the age it belongs to,
// for each of the two curve functions. NaN ages mark empty slots.
type curveTerm struct {
	iobAge, iob float64
	actAge, act float64
}

// sameAge reports whether a slot keyed by stored holds the term for
// age: the identical float64, bit for bit (so -0 and +0 differ), and
// never NaN.
func sameAge(stored, age float64) bool {
	return stored == age && math.Float64bits(stored) == math.Float64bits(age)
}

// NewIOBTracker returns a tracker using the given activity curve and
// scheduled basal rate (U/h).
func NewIOBTracker(curve InsulinCurve, basalUPerH float64) *IOBTracker {
	return &IOBTracker{curve: curve, basal: basalUPerH}
}

// Record adds a delivery of rate U/h sustained for dtMin minutes ending
// at the tracker's current time plus dtMin, then advances the clock.
func (t *IOBTracker) Record(rateUPerH, dtMin float64) {
	net := (rateUPerH - t.basal) * dtMin / 60 // net units over the interval
	// Attribute the dose to the midpoint of the interval.
	t.doses = append(t.doses, dose{timeMin: t.now + dtMin/2, units: net})
	t.now += dtMin
	t.prune()
}

func (t *IOBTracker) prune() {
	dia := t.curve.DIA()
	keep := t.doses[:0]
	for _, d := range t.doses {
		if t.now-d.timeMin <= dia {
			keep = append(keep, d)
		}
	}
	t.doses = keep
}

// IOB returns the current net insulin on board in units. Positive values
// mean insulin above the scheduled basal is still active; negative values
// mean the patient has been under-dosed relative to basal.
func (t *IOBTracker) IOB() float64 {
	memo := t.slots()
	var sum float64
	for i, d := range t.doses {
		m := &memo[len(memo)-1-i]
		if age := t.now - d.timeMin; !sameAge(m.iobAge, age) {
			m.iobAge, m.iob = age, t.curve.IOBFraction(age)
		}
		sum += d.units * m.iob
	}
	return sum
}

// Activity returns the current net insulin activity in U/min.
func (t *IOBTracker) Activity() float64 {
	memo := t.slots()
	var sum float64
	for i, d := range t.doses {
		m := &memo[len(memo)-1-i]
		if age := t.now - d.timeMin; !sameAge(m.actAge, age) {
			m.actAge, m.act = age, t.curve.Activity(age)
		}
		sum += d.units * m.act
	}
	return sum
}

// slots returns one memo slot per retained dose. When the history
// outgrows the memo, the memo grows to the dose slice's capacity (so it
// reallocates no more often than the history does), keeping its slots
// and marking the new ones empty.
func (t *IOBTracker) slots() []curveTerm {
	n := len(t.doses)
	if len(t.memo) < n {
		grown := make([]curveTerm, cap(t.doses))
		for i := copy(grown, t.memo); i < len(grown); i++ {
			grown[i] = curveTerm{iobAge: math.NaN(), actAge: math.NaN()}
		}
		t.memo = grown
	}
	return t.memo[:n]
}

// Now returns the tracker clock in minutes.
func (t *IOBTracker) Now() float64 { return t.now }

// Reset clears history and rewinds the clock.
func (t *IOBTracker) Reset() {
	t.doses = t.doses[:0]
	t.now = 0
}
