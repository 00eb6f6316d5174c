package control

import (
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
	if a := tr.Activity(); a <= 0 {
		t.Errorf("activity after positive dose = %v, want > 0", a)
	}
	tr.Reset()
	tr.Record(0, 60)
	tr.Record(1, 30)
	if a := tr.Activity(); a >= 0 {
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

// referenceSums is the memo-free definition the tracker must reproduce
// bit for bit: Σ units·curve.F(now − t) over the retained doses, in
// recording order.
func referenceSums(tr *IOBTracker) (iob, activity float64) {
	for _, d := range tr.doses {
		iob += d.units * tr.curve.IOBFraction(tr.now-d.timeMin)
		activity += d.units * tr.curve.Activity(tr.now-d.timeMin)
	}
	return iob, activity
}

// checkMemo compares the tracker's memoized IOB and Activity with the
// reference sums, bit for bit. The rng decides which of the two the
// tracker is asked for first and whether Activity is asked at all this
// cycle, so each memo column also runs with stale slots.
func checkMemo(t *testing.T, label string, tr *IOBTracker, rng *rand.Rand) {
	t.Helper()
	wantIOB, wantAct := referenceSums(tr)
	var gotAct float64
	askAct := rng.Intn(4) != 0
	actFirst := askAct && rng.Intn(2) == 0
	if actFirst {
		gotAct = tr.Activity()
	}
	gotIOB := tr.IOB()
	if askAct && !actFirst {
		gotAct = tr.Activity()
	}
	if math.Float64bits(gotIOB) != math.Float64bits(wantIOB) {
		t.Fatalf("%s at t=%v (%d doses): IOB %v, reference %v", label, tr.now, len(tr.doses), gotIOB, wantIOB)
	}
	if askAct && math.Float64bits(gotAct) != math.Float64bits(wantAct) {
		t.Fatalf("%s at t=%v (%d doses): Activity %v, reference %v", label, tr.now, len(tr.doses), gotAct, wantAct)
	}
}

// TestIOBTrackerMemoMatchesReference is the exact differential for the
// age-keyed curve memo, on both curve types: after every Record the
// memoized IOB and Activity must equal the memo-free reference sums bit
// for bit — through fill, steady state and pruning on a 5-minute cycle,
// on irregular and 0.1-minute cycles where slots miss, after Reset, and
// after restoring a snapshot into a tracker whose memo came from a
// different history.
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
			rng := rand.New(rand.NewSource(1))
			rate := func() float64 { return 4 * rng.Float64() }
			tr := NewIOBTracker(curve, 1.2)

			for i := 0; i < 200; i++ {
				tr.Record(rate(), 5)
				checkMemo(t, "5-min", tr, rng)
			}
			if max := int(curve.DIA()/5) + 1; len(tr.doses) > max {
				t.Fatalf("5-min history holds %d doses, want at most %d (pruning)", len(tr.doses), max)
			}
			for i := 0; i < 40; i++ {
				tr.Record(rate(), []float64{30, 60, 5, 7.3}[rng.Intn(4)])
				checkMemo(t, "irregular", tr, rng)
			}
			for i := 0; i < int(curve.DIA()/0.1)+50; i++ {
				tr.Record(rate(), 0.1)
				checkMemo(t, "0.1-min", tr, rng)
			}

			tr.Reset()
			for i := 0; i < 80; i++ {
				tr.Record(rate(), 5)
				checkMemo(t, "after Reset", tr, rng)
			}

			// Snapshot a 5-minute history into a tracker whose memo was
			// filled on a 7-minute cycle, then keep both running.
			enc := snapshot.NewEncoder()
			tr.SnapshotState(enc)
			other := NewIOBTracker(curve, 1.2)
			for i := 0; i < 90; i++ {
				other.Record(rate(), 7)
				checkMemo(t, "other history", other, rng)
			}
			if err := other.RestoreState(snapshot.NewDecoder(enc.Payload())); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 80; i++ {
				r := rate()
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
// evaluates the curve zero times, and while it fills only the slot the
// history just grew into is evaluated.
func TestIOBTrackerMemoHitsOnFixedCycle(t *testing.T) {
	curve := &countingCurve{InsulinCurve: mustExpCurve(t)}
	tr := NewIOBTracker(curve, 1)
	for i := 0; i < 200; i++ {
		tr.Record(float64(i%5), 5)
		before := curve.calls
		tr.IOB()
		tr.Activity()
		tr.IOB()
		want := 0
		if i < 60 {
			want = 2 // the oldest dose's new slot, once per curve function
		}
		if got := curve.calls - before; got != want {
			t.Fatalf("cycle %d (%d doses): %d curve evaluations, want %d", i, len(tr.doses), got, want)
		}
	}
}

// TestIOBTrackerRestoreRejectsNonFinite: a snapshot with a non-finite
// clock, dose time or dose units must fail with an error naming the
// field and leave the tracker as it was. A NaN clock would otherwise
// prune every later dose on arrival and pin IOB at 0.
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
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := NewIOBTracker(mustExpCurve(t), 1)
			tr.Record(3, 5)
			wantNow, wantIOB := tr.Now(), tr.IOB()
			err := tr.RestoreState(snapshot.NewDecoder(encode(tt.now, tt.doseTime, tt.units)))
			if err == nil || !strings.Contains(err.Error(), tt.field) {
				t.Fatalf("RestoreState: %v, want an error naming %q", err, tt.field)
			}
			if tr.Now() != wantNow || tr.IOB() != wantIOB {
				t.Fatalf("failed restore changed the tracker: now %v IOB %v, want %v %v",
					tr.Now(), tr.IOB(), wantNow, wantIOB)
			}
		})
	}
	tr := NewIOBTracker(mustExpCurve(t), 1)
	if err := tr.RestoreState(snapshot.NewDecoder(encode(10, 7.5, 0.1))); err != nil {
		t.Fatalf("finite snapshot: %v", err)
	}
}

// BenchmarkIOBTracker times one OpenAPS cycle of tracker work — IOB,
// Activity, then Record — on a full 60-dose history at the 5-minute
// cycle, the steady state of every campaign session.
func BenchmarkIOBTracker(b *testing.B) {
	c, err := NewExponentialCurve(300, 75)
	if err != nil {
		b.Fatal(err)
	}
	tr := NewIOBTracker(c, 1)
	rates := make([]float64, 64)
	for i := range rates {
		rates[i] = 2 * float64(i%7) / 3
	}
	var sink float64
	for i := 0; i < 100; i++ {
		sink += tr.IOB() + tr.Activity()
		tr.Record(rates[i%len(rates)], 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += tr.IOB() + tr.Activity()
		tr.Record(rates[i%len(rates)], 5)
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN tracker sums")
	}
}
