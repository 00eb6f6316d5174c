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
//
// Implementations must be pure functions of the age, and IOBFraction
// and Activity must return finite values for every age that is not NaN
// (±Inf included): IOBTracker memoizes terms by age and skips zero-unit
// doses, which is exact only because 0 times a finite term is ±0.
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
	// next is, on a nonzero dose, the number of records to the next
	// nonzero dose in the window (1 on the newest one). Zero doses are
	// not on this chain and leave it unset.
	next int
}

// IOBTracker accumulates insulin deliveries and reports net IOB and
// activity relative to the patient's scheduled basal rate, the same
// "net IOB" convention OpenAPS uses. Doses older than the curve's DIA
// are pruned.
//
// Records are numbered from 0 in recording order, and record r sits in
// ring[r mod len(ring)]. The window is the last n records. Doses arrive
// in nondecreasing time order, so the expired ones are always its
// oldest: pruning shrinks n, and the ring doubles only when the window
// outgrows it.
//
// A cycle that delivers exactly the scheduled basal records a zero-unit
// dose. Its curve term is ±0, because the curve returns finite terms.
// Each sum starts at +0 and, under round-to-nearest, never becomes -0,
// so adding ±0 leaves its bits unchanged: the sums walk only the chain
// of nonzero doses (dose.next, from record first to record last). Zero
// doses stay in the window, so the snapshot still records them.
//
// The tracker memoizes curve terms by dose age: memo[k] holds the
// IOBFraction and Activity last computed for the dose k records back
// from the newest, keyed by the bits of the float64 age they were
// computed at. On a fixed control cycle a slot's age repeats every
// cycle, so each transcendental runs once per distinct age instead of
// once per dose per call; any other age (irregular cycles) misses and
// recomputes. Because the curve is a pure function of the age, a hit
// returns the bits a fresh evaluation would, and the memo is not
// snapshot state. No age in the window is NaN (Record prunes a dose
// whose age is NaN and RestoreState rejects non-finite input), so no
// age matches the NaN bits that mark an empty slot.
type IOBTracker struct {
	curve InsulinCurve
	dia   float64 // curve.DIA()
	basal float64 // scheduled basal, U/h
	now   float64

	ring        []dose // len is a power of two
	end, n      int    // the window is records end-n .. end-1
	first, last int    // oldest and newest nonzero record; none when first > last
	memo        []curveTerm
}

// curveTerm is one memo slot: the two curve values and the bits of the
// age they belong to.
type curveTerm struct {
	age      uint64
	iob, act float64
}

// emptySlot is the key of a slot that holds no terms: NaN bits, which
// no age in the window has.
const emptySlot = ^uint64(0)

// NewIOBTracker returns a tracker using the given activity curve and
// scheduled basal rate (U/h).
func NewIOBTracker(curve InsulinCurve, basalUPerH float64) *IOBTracker {
	return &IOBTracker{curve: curve, dia: curve.DIA(), basal: basalUPerH, last: -1}
}

// Record adds a delivery of rate U/h sustained for dtMin minutes ending
// at the tracker's current time plus dtMin, then advances the clock.
// dtMin must not be negative, so that doses stay in time order; Record
// panics on a negative interval.
func (t *IOBTracker) Record(rateUPerH, dtMin float64) {
	if dtMin < 0 {
		panic(fmt.Sprintf("control: IOBTracker.Record: negative interval %v min", dtMin))
	}
	net := (rateUPerH - t.basal) * dtMin / 60 // net units over the interval
	// Attribute the dose to the midpoint of the interval.
	t.push(dose{timeMin: t.now + dtMin/2, units: net})
	t.now += dtMin
	// The expired doses are the oldest (a NaN age counts as expired).
	for t.n > 0 && !(t.now-t.at(t.end-t.n).timeMin <= t.dia) {
		t.n--
	}
	for t.first <= t.last && t.first < t.end-t.n {
		t.first += t.at(t.first).next
	}
}

// at returns record r's slot in the ring.
func (t *IOBTracker) at(r int) *dose { return &t.ring[r&(len(t.ring)-1)] }

// push appends d to the window as record end, and to the nonzero chain
// unless it is a zero dose. It doubles the ring first if the window
// fills it.
func (t *IOBTracker) push(d dose) {
	if t.n == len(t.ring) {
		ring := make([]dose, max(2*len(t.ring), 1))
		for r := t.end - t.n; r < t.end; r++ {
			ring[r&(len(ring)-1)] = *t.at(r)
		}
		t.ring = ring
	}
	r := t.end
	if d.units != 0 {
		if t.first > t.last {
			t.first = r
		} else {
			t.at(t.last).next = r - t.last
		}
		d.next = 1
		t.last = r
	}
	*t.at(r) = d
	t.end++
	t.n++
}

// IOB returns the current net insulin on board in units. Positive values
// mean insulin above the scheduled basal is still active; negative values
// mean the patient has been under-dosed relative to basal.
func (t *IOBTracker) IOB() float64 {
	iob, _ := t.IOBActivity()
	return iob
}

// IOBActivity returns IOB (units) and the current net insulin activity
// (U/min) from one pass over the window. Each is the sum, in recording
// order, of the doses' units times the curve's IOBFraction or Activity
// at the dose's age.
func (t *IOBTracker) IOBActivity() (iob, activity float64) {
	memo, ring, now := t.slots(), t.ring, t.now
	mask, newest := len(ring)-1, t.end-1
	for r := t.first; r <= t.last; {
		d := &ring[r&mask]
		m := &memo[newest-r]
		if age := now - d.timeMin; m.age != math.Float64bits(age) {
			*m = curveTerm{age: math.Float64bits(age), iob: t.curve.IOBFraction(age), act: t.curve.Activity(age)}
		}
		iob += d.units * m.iob
		activity += d.units * m.act
		r += d.next
	}
	return iob, activity
}

// slots returns the memo, grown to at least one slot per dose in the
// window. Growth at least doubles it, keeping its slots and marking the
// new ones empty.
func (t *IOBTracker) slots() []curveTerm {
	if len(t.memo) < t.n {
		grown := make([]curveTerm, max(2*len(t.memo), t.n))
		for i := copy(grown, t.memo); i < len(grown); i++ {
			grown[i].age = emptySlot
		}
		t.memo = grown
	}
	return t.memo
}

// Now returns the tracker clock in minutes.
func (t *IOBTracker) Now() float64 { return t.now }

// Reset clears history and rewinds the clock.
func (t *IOBTracker) Reset() {
	t.end, t.n, t.first, t.last = 0, 0, 0, -1
	t.now = 0
}
