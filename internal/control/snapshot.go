// Snapshot/restore of controller state. Controllers serialize their IOB
// dose history and named internal variables; the fault-injection hook
// (SetPerturb) is a function pointer installed by the owning session and
// is re-attached on restore by the caller, not serialized.

package control

import (
	"fmt"
	"math"

	"repro/internal/snapshot"
)

var (
	_ snapshot.Snapshotter = (*IOBTracker)(nil)
	_ snapshot.Snapshotter = (*OpenAPS)(nil)
	_ snapshot.Snapshotter = (*BasalBolus)(nil)
)

// SnapshotState implements snapshot.Snapshotter: the clock and the
// unexpired dose history, zero doses included, in recording order.
func (t *IOBTracker) SnapshotState(enc *snapshot.Encoder) {
	enc.Float64(t.now)
	enc.Int(t.n)
	for r := t.end - t.n; r < t.end; r++ {
		d := t.at(r)
		enc.Float64(d.timeMin)
		enc.Float64(d.units)
	}
}

// RestoreState implements snapshot.Snapshotter. It rejects a
// non-finite clock, dose time or dose units: with a NaN clock every
// later dose would be pruned on arrival and IOB would read 0 for the
// rest of the session. It also rejects dose times that decrease or lie
// after the clock, which Record can never produce: the window prunes
// only its oldest doses, so it needs them in time order.
func (t *IOBTracker) RestoreState(dec *snapshot.Decoder) error {
	now := dec.Float64()
	n := dec.Count(16)
	if err := dec.Err(); err != nil {
		return err
	}
	if !finite(now) {
		return fmt.Errorf("control: restored iob clock is %v", now)
	}
	doses := make([]dose, n)
	for i := range doses {
		doses[i] = dose{timeMin: dec.Float64(), units: dec.Float64()}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	for i, d := range doses {
		if !finite(d.timeMin) {
			return fmt.Errorf("control: restored iob dose %d time is %v", i, d.timeMin)
		}
		if !finite(d.units) {
			return fmt.Errorf("control: restored iob dose %d units is %v", i, d.units)
		}
		if i > 0 && d.timeMin < doses[i-1].timeMin {
			return fmt.Errorf("control: restored iob dose %d time %v precedes dose %d time %v",
				i, d.timeMin, i-1, doses[i-1].timeMin)
		}
		if d.timeMin > now {
			return fmt.Errorf("control: restored iob dose %d time %v is after the clock %v", i, d.timeMin, now)
		}
	}
	t.Reset()
	t.now = now
	for _, d := range doses {
		t.push(d)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SnapshotState implements snapshot.Snapshotter: the IOB tracker plus
// every named internal variable and the carried-over rate memory.
func (c *OpenAPS) SnapshotState(enc *snapshot.Encoder) {
	c.tracker.SnapshotState(enc)
	enc.Float64(c.glucose)
	enc.Float64(c.prevGlucose)
	enc.Float64(c.iob)
	enc.Float64(c.isf)
	enc.Float64(c.eventualBG)
	enc.Float64(c.rate)
	enc.Bool(c.havePrev)
	enc.Float64(c.lastRate)
}

// RestoreState implements snapshot.Snapshotter. The perturb hook is
// left as-is; callers re-attach fault injection separately.
func (c *OpenAPS) RestoreState(dec *snapshot.Decoder) error {
	if err := c.tracker.RestoreState(dec); err != nil {
		return fmt.Errorf("openaps iob tracker: %w", err)
	}
	glucose := dec.Float64()
	prevGlucose := dec.Float64()
	iob := dec.Float64()
	isf := dec.Float64()
	eventualBG := dec.Float64()
	rate := dec.Float64()
	havePrev := dec.Bool()
	lastRate := dec.Float64()
	if err := dec.Err(); err != nil {
		return err
	}
	c.glucose, c.prevGlucose = glucose, prevGlucose
	c.iob, c.isf, c.eventualBG, c.rate = iob, isf, eventualBG, rate
	c.havePrev, c.lastRate = havePrev, lastRate
	return nil
}

// SnapshotState implements snapshot.Snapshotter.
func (c *BasalBolus) SnapshotState(enc *snapshot.Encoder) {
	c.tracker.SnapshotState(enc)
	enc.Float64(c.glucose)
	enc.Float64(c.iob)
	enc.Float64(c.isf)
	enc.Float64(c.rate)
	enc.Float64(c.lastBolusMin)
	enc.Bool(c.hasBolused)
}

// RestoreState implements snapshot.Snapshotter.
func (c *BasalBolus) RestoreState(dec *snapshot.Decoder) error {
	if err := c.tracker.RestoreState(dec); err != nil {
		return fmt.Errorf("basal-bolus iob tracker: %w", err)
	}
	glucose := dec.Float64()
	iob := dec.Float64()
	isf := dec.Float64()
	rate := dec.Float64()
	lastBolusMin := dec.Float64()
	hasBolused := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	c.glucose, c.iob, c.isf, c.rate = glucose, iob, isf, rate
	c.lastBolusMin, c.hasBolused = lastBolusMin, hasBolused
	return nil
}
