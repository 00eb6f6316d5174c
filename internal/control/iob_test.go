package control

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/snapshot"
)

func mustExpCurve(t *testing.T) *ExponentialCurve {
	t.Helper()
	c, err := NewExponentialCurve(300, 75)
	if err != nil {
		t.Fatalf("NewExponentialCurve: %v", err)
	}
	return c
}

func TestExponentialCurveValidation(t *testing.T) {
	tests := []struct {
		name      string
		dia, peak float64
	}{
		{"zero dia", 0, 75},
		{"zero peak", 300, 0},
		{"peak at half dia", 300, 150},
		{"peak beyond half dia", 300, 200},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewExponentialCurve(tt.dia, tt.peak); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestExponentialCurveBoundaries(t *testing.T) {
	c := mustExpCurve(t)
	if got := c.IOBFraction(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("IOBFraction(0) = %v, want 1", got)
	}
	if got := c.IOBFraction(300); got > 0.001 {
		t.Errorf("IOBFraction(DIA) = %v, want ~0", got)
	}
	if got := c.IOBFraction(-5); got != 1 {
		t.Errorf("IOBFraction(-5) = %v, want 1", got)
	}
	if got := c.IOBFraction(400); got != 0 {
		t.Errorf("IOBFraction(past DIA) = %v, want 0", got)
	}
	if got := c.Activity(-1); got != 0 {
		t.Errorf("Activity(-1) = %v, want 0", got)
	}
	if got := c.Activity(301); got != 0 {
		t.Errorf("Activity(past DIA) = %v, want 0", got)
	}
	if c.DIA() != 300 {
		t.Errorf("DIA = %v", c.DIA())
	}
}

func TestExponentialCurvePeak(t *testing.T) {
	c := mustExpCurve(t)
	// Activity should peak near the configured 75 minutes.
	best, bestT := 0.0, 0.0
	for tm := 1.0; tm <= 299; tm++ {
		if a := c.Activity(tm); a > best {
			best, bestT = a, tm
		}
	}
	if math.Abs(bestT-75) > 5 {
		t.Errorf("activity peak at %v min, want ~75", bestT)
	}
}

func TestExponentialCurveMonotoneIOB(t *testing.T) {
	c := mustExpCurve(t)
	prev := 1.0
	for tm := 0.0; tm <= 300; tm += 5 {
		f := c.IOBFraction(tm)
		if f > prev+1e-9 {
			t.Fatalf("IOBFraction increased at t=%v: %v > %v", tm, f, prev)
		}
		prev = f
	}
}

func TestExponentialActivityIntegratesToOne(t *testing.T) {
	c := mustExpCurve(t)
	var integral float64
	const h = 0.1
	for tm := 0.0; tm < 300; tm += h {
		integral += c.Activity(tm+h/2) * h
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("activity integral = %v, want ~1", integral)
	}
}

func TestExponentialActivityMatchesIOBDerivative(t *testing.T) {
	c := mustExpCurve(t)
	for tm := 10.0; tm < 290; tm += 20 {
		const h = 0.01
		num := -(c.IOBFraction(tm+h) - c.IOBFraction(tm-h)) / (2 * h)
		if math.Abs(num-c.Activity(tm)) > 1e-3 {
			t.Errorf("at t=%v: -dIOB/dt = %v, Activity = %v", tm, num, c.Activity(tm))
		}
	}
}

func TestBilinearCurve(t *testing.T) {
	if _, err := NewBilinearCurve(0); err == nil {
		t.Error("zero DIA should fail")
	}
	c, err := NewBilinearCurve(240)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.IOBFraction(0); got != 1 {
		t.Errorf("IOBFraction(0) = %v", got)
	}
	if got := c.IOBFraction(240); math.Abs(got) > 1e-9 {
		t.Errorf("IOBFraction(DIA) = %v, want 0", got)
	}
	// Peak at 0.25*DIA = 60.
	if c.Activity(60) <= c.Activity(30) || c.Activity(60) <= c.Activity(120) {
		t.Error("bilinear activity should peak at DIA/4")
	}
	var integral float64
	const h = 0.05
	for tm := 0.0; tm < 240; tm += h {
		integral += c.Activity(tm+h/2) * h
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("bilinear activity integral = %v, want ~1", integral)
	}
	prev := 1.0
	for tm := 0.0; tm <= 240; tm += 2 {
		f := c.IOBFraction(tm)
		if f > prev+1e-9 {
			t.Fatalf("bilinear IOBFraction increased at t=%v", tm)
		}
		prev = f
	}
}

func TestIOBTrackerBasalIsZero(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	for i := 0; i < 100; i++ {
		tr.Record(1.0, 5)
	}
	if iob := tr.IOB(); math.Abs(iob) > 1e-9 {
		t.Errorf("IOB at exact basal = %v, want 0", iob)
	}
}

func TestIOBTrackerAboveBasal(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	tr.Record(13.0, 5) // 1 U net over 5 min
	iob := tr.IOB()
	if iob < 0.9 || iob > 1.0 {
		t.Errorf("IOB just after 1U net dose = %v, want ~1", iob)
	}
	// Decay to ~0 after DIA.
	for i := 0; i < 61; i++ {
		tr.Record(1.0, 5)
	}
	if iob := tr.IOB(); iob > 0.01 {
		t.Errorf("IOB after DIA = %v, want ~0", iob)
	}
}

func TestIOBTrackerBelowBasal(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	tr.Record(0, 30) // suspension: -0.5 U net
	if iob := tr.IOB(); iob > -0.4 {
		t.Errorf("IOB after suspension = %v, want ~-0.5", iob)
	}
}

func TestIOBTrackerActivitySign(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	tr.Record(13, 5)
	tr.Record(1, 60) // let activity develop
	if _, a := tr.IOBActivity(); a <= 0 {
		t.Errorf("activity after positive dose = %v, want > 0", a)
	}
	tr.Reset()
	tr.Record(0, 60)
	tr.Record(1, 30)
	if _, a := tr.IOBActivity(); a >= 0 {
		t.Errorf("activity after under-dosing = %v, want < 0", a)
	}
}

func TestIOBTrackerReset(t *testing.T) {
	c := mustExpCurve(t)
	tr := NewIOBTracker(c, 1.0)
	tr.Record(10, 5)
	tr.Reset()
	if tr.IOB() != 0 || tr.Now() != 0 {
		t.Error("Reset should clear state")
	}
}

// Property: IOB is bounded by total net units delivered within DIA.
func TestIOBTrackerBoundedProperty(t *testing.T) {
	c := mustExpCurve(t)
	f := func(rates []uint8) bool {
		tr := NewIOBTracker(c, 1.0)
		var maxNet float64
		for _, r := range rates {
			rate := float64(r%80) / 10 // 0..7.9 U/h
			tr.Record(rate, 5)
			net := (rate - 1.0) * 5 / 60
			if net > 0 {
				maxNet += net
			}
		}
		iob := tr.IOB()
		return iob <= maxNet+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// window returns the tracker's unexpired doses in recording order.
func window(tr *IOBTracker) []dose {
	w := make([]dose, 0, tr.n)
	for r := tr.end - tr.n; r < tr.end; r++ {
		w = append(w, *tr.at(r))
	}
	return w
}

// referenceSums is the memo-free definition the tracker must reproduce
// bit for bit: Σ units·curve.F(now − t) over every dose in the window,
// zero doses included, in recording order.
func referenceSums(tr *IOBTracker) (iob, activity float64) {
	for _, d := range window(tr) {
		iob += d.units * tr.curve.IOBFraction(tr.now-d.timeMin)
		activity += d.units * tr.curve.Activity(tr.now-d.timeMin)
	}
	return iob, activity
}

// checkMemo compares the tracker's memoized sums with the reference
// sums, bit for bit. The rng decides whether the tracker is asked for
// IOB alone, for IOBActivity alone, or for both, so slots filled by one
// entry point are read by the other.
func checkMemo(t *testing.T, label string, tr *IOBTracker, rng *rand.Rand) {
	t.Helper()
	wantIOB, wantAct := referenceSums(tr)
	mode := rng.Intn(3) // 0: IOB; 1: IOBActivity; 2: IOB, then IOBActivity
	if mode != 1 {
		if got := tr.IOB(); math.Float64bits(got) != math.Float64bits(wantIOB) {
			t.Fatalf("%s at t=%v (%d doses): IOB %v, reference %v", label, tr.now, len(window(tr)), got, wantIOB)
		}
	}
	if mode != 0 {
		gotIOB, gotAct := tr.IOBActivity()
		if math.Float64bits(gotIOB) != math.Float64bits(wantIOB) || math.Float64bits(gotAct) != math.Float64bits(wantAct) {
			t.Fatalf("%s at t=%v (%d doses): IOBActivity %v, %v, reference %v, %v",
				label, tr.now, len(window(tr)), gotIOB, gotAct, wantIOB, wantAct)
		}
	}
}

// TestIOBTrackerMemoMatchesReference is the exact differential for the
// age-keyed curve memo and the zero-dose skip, on both curve types:
// after every Record the memoized sums must equal the reference sums,
// which also add the zero doses, bit for bit. It runs through fill,
// steady state and pruning on a 5-minute cycle, irregular and
// 0.1-minute cycles where slots miss, runs at exactly the basal rate, a
// window of only zero doses, zero doses crossing the DIA edge, a -0
// rate at basal 0, Reset, and a snapshot restored into a tracker whose
// memo came from a different history.
func TestIOBTrackerMemoMatchesReference(t *testing.T) {
	bilinear, err := NewBilinearCurve(240)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		curve InsulinCurve
	}{{"exponential", mustExpCurve(t)}, {"bilinear", bilinear}} {
		curve := c.curve
		t.Run(c.name, func(t *testing.T) {
			const basal = 1.2
			rng := rand.New(rand.NewSource(1))
			rate := func() float64 { return 4 * rng.Float64() }
			// mixed delivers exactly the basal in runs (half the cycles
			// on average), as a controller at target does.
			atBasal := false
			mixed := func() float64 {
				if rng.Intn(8) == 0 {
					atBasal = !atBasal
				}
				if atBasal {
					return basal
				}
				return rate()
			}
			tr := NewIOBTracker(curve, basal)

			for i := 0; i < 200; i++ {
				tr.Record(rate(), 5)
				checkMemo(t, "5-min", tr, rng)
			}
			full := int(curve.DIA()/5) + 1
			if len(window(tr)) > full {
				t.Fatalf("5-min history holds %d doses, want at most %d (pruning)", len(window(tr)), full)
			}
			if len(tr.ring) > 2*full {
				t.Fatalf("5-min history ring holds %d slots for at most %d doses", len(tr.ring), full)
			}
			for i := 0; i < 40; i++ {
				tr.Record(rate(), []float64{30, 60, 5, 7.3}[rng.Intn(4)])
				checkMemo(t, "irregular", tr, rng)
			}
			for i := 0; i < int(curve.DIA()/0.1)+50; i++ {
				tr.Record(rate(), 0.1)
				checkMemo(t, "0.1-min", tr, rng)
			}
			for i := 0; i < 300; i++ {
				tr.Record(mixed(), []float64{5, 5, 5, 7.3}[rng.Intn(4)])
				checkMemo(t, "basal runs", tr, rng)
			}

			// Only zero doses left in the window: both sums are +0.
			for i := 0; i < full+1; i++ {
				tr.Record(basal, 5)
				checkMemo(t, "zero window", tr, rng)
			}
			if iob, act := tr.IOBActivity(); math.Float64bits(iob) != 0 || math.Float64bits(act) != 0 {
				t.Fatalf("window of %d zero doses: IOBActivity %v, %v, want +0, +0", len(window(tr)), iob, act)
			}

			// Zero doses cross the DIA edge: blocks of basal and
			// off-basal doses on a 7.3-minute cycle, so the window's
			// front is a zero run, then a nonzero run, in turn.
			for i := 0; i < 4*int(curve.DIA()/7.3); i++ {
				r := basal
				if (i/9)%3 == 0 {
					r = rate()
				}
				tr.Record(r, 7.3)
				checkMemo(t, "DIA edge", tr, rng)
			}

			// At basal 0 a -0 rate records a -0 dose: skipped like +0,
			// kept in the history with its sign.
			negZero := math.Copysign(0, -1)
			neg := NewIOBTracker(curve, 0)
			for i := 0; i < 2*full; i++ {
				r := negZero
				if rng.Intn(3) == 0 {
					r = rate()
				}
				neg.Record(r, 5)
				checkMemo(t, "-0 rate", neg, rng)
			}
			neg.Record(negZero, 5)
			w := window(neg)
			if last := w[len(w)-1].units; math.Float64bits(last) != math.Float64bits(negZero) {
				t.Fatalf("a -0 rate at basal 0 recorded %v, want -0", last)
			}
			checkMemo(t, "-0 rate", neg, rng)

			tr.Reset()
			for i := 0; i < 80; i++ {
				tr.Record(mixed(), 5)
				checkMemo(t, "after Reset", tr, rng)
			}

			// Snapshot a 5-minute history into a tracker whose memo was
			// filled on a 7-minute cycle, then keep both running.
			enc := snapshot.NewEncoder()
			tr.SnapshotState(enc)
			other := NewIOBTracker(curve, basal)
			for i := 0; i < 90; i++ {
				other.Record(mixed(), 7)
				checkMemo(t, "other history", other, rng)
			}
			if err := other.RestoreState(snapshot.NewDecoder(enc.Payload())); err != nil {
				t.Fatal(err)
			}
			checkMemo(t, "restored", other, rng)
			for i := 0; i < 80; i++ {
				r := mixed()
				tr.Record(r, 5)
				other.Record(r, 5)
				checkMemo(t, "restored", other, rng)
				if math.Float64bits(other.IOB()) != math.Float64bits(tr.IOB()) {
					t.Fatalf("restored tracker IOB %v, source %v", other.IOB(), tr.IOB())
				}
			}
		})
	}
}

// countingCurve counts the evaluations it forwards to its curve.
type countingCurve struct {
	InsulinCurve
	calls int
}

func (c *countingCurve) IOBFraction(t float64) float64 {
	c.calls++
	return c.InsulinCurve.IOBFraction(t)
}

func (c *countingCurve) Activity(t float64) float64 {
	c.calls++
	return c.InsulinCurve.Activity(t)
}

// TestIOBTrackerMemoHitsOnFixedCycle: on a fixed cycle every slot's age
// repeats, so once the history is full an OpenAPS cycle of tracker work
// evaluates the curve zero times, and while it fills only one fresh
// slot is evaluated. A zero-net dose evaluates no curve term: its slot
// is first evaluated when a nonzero dose reaches it, and the zero doses
// in the window do not shift the other doses' slots, because slots are
// counted in records back from the newest.
func TestIOBTrackerMemoHitsOnFixedCycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate func(i int) float64 // basal is 1
		// fresh reports the cycles that evaluate one fresh slot.
		fresh func(i int) bool
	}{
		{"oldest dose off basal", func(i int) float64 { return float64(i % 5) },
			func(i int) bool { return i < 60 }},
		// The oldest dose is at basal, so each slot is first evaluated
		// a cycle later, by the second dose.
		{"oldest dose at basal", func(i int) float64 { return float64((i + 1) % 5) },
			func(i int) bool { return i >= 1 && i <= 60 }},
		{"all at basal", func(int) float64 { return 1 },
			func(int) bool { return false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			curve := &countingCurve{InsulinCurve: mustExpCurve(t)}
			tr := NewIOBTracker(curve, 1)
			for i := 0; i < 200; i++ {
				tr.Record(tc.rate(i), 5)
				before := curve.calls
				tr.IOB()
				tr.IOBActivity()
				tr.IOB()
				want := 0
				if tc.fresh(i) {
					want = 2 // one IOBFraction and one Activity
				}
				if got := curve.calls - before; got != want {
					t.Fatalf("cycle %d (%d doses): %d curve evaluations, want %d", i, len(window(tr)), got, want)
				}
			}
		})
	}
}

// TestIOBTrackerRecordPanicsOnNegativeInterval: a negative interval
// would record a dose before the window's newest, breaking the time
// order the prefix prune relies on. Only a caller bug can pass one
// (closedloop rejects CycleMin <= 0), so Record panics; a zero interval
// of either sign is accepted.
func TestIOBTrackerRecordPanicsOnNegativeInterval(t *testing.T) {
	tr := NewIOBTracker(mustExpCurve(t), 1)
	tr.Record(2, 5)
	tr.Record(2, 0)
	tr.Record(2, math.Copysign(0, -1))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "negative interval") {
			t.Fatalf("Record(2, -5) panicked with %q, want a negative-interval message", msg)
		}
	}()
	tr.Record(2, -5)
}

// TestIOBTrackerRestoreRejectsNonFinite: a snapshot with a non-finite
// clock, dose time or dose units, or with dose times that decrease or
// lie after the clock, must fail with an error naming the field and
// leave the tracker as it was. A NaN clock would otherwise prune every
// later dose on arrival and pin IOB at 0; out-of-order doses would break
// the prefix prune.
func TestIOBTrackerRestoreRejectsNonFinite(t *testing.T) {
	encode := func(now, doseTime, units float64) []byte {
		enc := snapshot.NewEncoder()
		enc.Float64(now)
		enc.Int(2)
		enc.Float64(2.5)
		enc.Float64(0.1)
		enc.Float64(doseTime)
		enc.Float64(units)
		return enc.Payload()
	}
	tests := []struct {
		name                 string
		now, doseTime, units float64
		field                string
	}{
		{"NaN clock", math.NaN(), 7.5, 0.1, "clock"},
		{"+Inf clock", math.Inf(1), 7.5, 0.1, "clock"},
		{"NaN dose time", 10, math.NaN(), 0.1, "dose 1 time"},
		{"-Inf dose time", 10, math.Inf(-1), 0.1, "dose 1 time"},
		{"NaN dose units", 10, 7.5, math.NaN(), "dose 1 units"},
		{"+Inf dose units", 10, 7.5, math.Inf(1), "dose 1 units"},
		{"decreasing dose time", 10, 2, 0.1, "dose 1 time 2 precedes dose 0"},
		{"decreasing zero dose", 10, -7.5, 0, "dose 1 time -7.5 precedes dose 0"},
		{"dose after clock", 10, 12.5, 0.1, "dose 1 time 12.5 is after the clock"},
		{"all doses after clock", 2, 7.5, 0.1, "dose 0 time 2.5 is after the clock"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := NewIOBTracker(mustExpCurve(t), 1)
			tr.Record(3, 5)
			tr.Record(1, 5)
			wantNow, wantIOB := tr.Now(), tr.IOB()
			err := tr.RestoreState(snapshot.NewDecoder(encode(tt.now, tt.doseTime, tt.units)))
			if err == nil || !strings.Contains(err.Error(), tt.field) {
				t.Fatalf("RestoreState: %v, want an error naming %q", err, tt.field)
			}
			if tr.Now() != wantNow || tr.IOB() != wantIOB || len(window(tr)) != 2 {
				t.Fatalf("failed restore changed the tracker: now %v IOB %v (%d doses), want %v %v (2 doses)",
					tr.Now(), tr.IOB(), len(window(tr)), wantNow, wantIOB)
			}
		})
	}
	tr := NewIOBTracker(mustExpCurve(t), 1)
	for _, doseTime := range []float64{7.5, 2.5, 10} { // in order, equal, at the clock
		if err := tr.RestoreState(snapshot.NewDecoder(encode(10, doseTime, 0.1))); err != nil {
			t.Fatalf("snapshot with dose 1 at %v: %v", doseTime, err)
		}
	}
}

// FuzzIOBTrackerRestore feeds arbitrary payloads to RestoreState: it
// must return an error or restore, never panic. A restored tracker must
// re-encode to the payload it read, and after a few Records, some at
// exactly the basal rate, its IOB and activity must equal the reference
// sums bit for bit.
func FuzzIOBTrackerRestore(f *testing.F) {
	curve, err := NewExponentialCurve(300, 75)
	if err != nil {
		f.Fatal(err)
	}
	payload := func(tr *IOBTracker) []byte {
		enc := snapshot.NewEncoder()
		tr.SnapshotState(enc)
		return enc.Payload()
	}
	seed := NewIOBTracker(curve, 1)
	f.Add(payload(seed))
	for i := 0; i < 70; i++ {
		seed.Record(float64(i%4)/2, 5) // every fourth cycle at basal
	}
	f.Add(payload(seed))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewIOBTracker(curve, 1)
		dec := snapshot.NewDecoder(data)
		if tr.RestoreState(dec) != nil {
			return
		}
		// The count is a varint, which the decoder also accepts in a
		// non-minimal form: compare it by value, every float bit for bit.
		read, again := data[:len(data)-dec.Remaining()], payload(tr)
		doses := 16 * len(window(tr))
		if !bytes.Equal(again[:8], read[:8]) || !bytes.Equal(again[len(again)-doses:], read[len(read)-doses:]) {
			t.Fatalf("restored tracker re-encodes to %x, read %x", again, read)
		}
		check := func(records int) {
			wantIOB, wantAct := referenceSums(tr)
			gotIOB, gotAct := tr.IOBActivity()
			if math.Float64bits(gotIOB) != math.Float64bits(wantIOB) || math.Float64bits(gotAct) != math.Float64bits(wantAct) {
				t.Fatalf("after restore and %d Records: IOBActivity %v, %v, reference %v, %v",
					records, gotIOB, gotAct, wantIOB, wantAct)
			}
		}
		check(0)
		for i, r := range []float64{1, 3, 1, 0, 1} {
			tr.Record(r, 5)
			check(i + 1)
		}
	})
}

// BenchmarkIOBTracker times one closed-loop session cycle of IOB tracker
// work on full histories at the 5-minute cycle, the steady state of
// every session: the OpenAPS controller's tracker (IOB and activity in
// one pass, then Record) and the stepper's monitor-context tracker (IOB,
// then Record). About 60 % of cycles deliver exactly the basal rate, the
// share of zero-net doses measured on campaign, serve and falsify runs.
func BenchmarkIOBTracker(b *testing.B) {
	c, err := NewExponentialCurve(300, 75)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, mon := NewIOBTracker(c, 1), NewIOBTracker(c, 1)
	rng := rand.New(rand.NewSource(1))
	rates := make([]float64, 1024)
	for i := range rates {
		rates[i] = 1
		if rng.Intn(5) < 2 {
			rates[i] = 3 * rng.Float64()
		}
	}
	var sink float64
	cycle := func(rate float64) {
		iob, act := ctrl.IOBActivity()
		sink += iob + act + mon.IOB()
		ctrl.Record(rate, 5)
		mon.Record(rate, 5)
	}
	for i := 0; i < 100; i++ {
		cycle(rates[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(rates[i%len(rates)])
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN tracker sums")
	}
}
