package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/monitor"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// The build-everything-then-subsample training-set path that BuildSuite
// ran before monitor.DrawRows and DrawWindows: the differential oracle
// the sampler must match bit for bit.

// featuresFromSample is the Eq. 7 feature vector of a recorded sample.
func featuresFromSample(s *trace.Sample) []float64 {
	return []float64{s.CGM, s.BGPrime, s.IOB, s.IOBPrime, s.Rate, float64(s.Action)}
}

// TrainingData assembles every Eq. 7 row of the traces.
func TrainingData(traces []*trace.Trace, multiClass bool) (X [][]float64, y []int) {
	for _, tr := range traces {
		hazType := tr.DominantHazard()
		for i := range tr.Samples {
			s := &tr.Samples[i]
			label := 0
			if anyHazardAtOrAfter(tr, s.Step) {
				if multiClass {
					label = int(hazType)
				} else {
					label = 1
				}
			}
			X = append(X, featuresFromSample(s))
			y = append(y, label)
		}
	}
	return X, y
}

// SequenceTrainingData assembles every Eq. 8 window of the traces.
func SequenceTrainingData(traces []*trace.Trace, window int, multiClass bool) (X [][][]float64, y []int) {
	for _, tr := range traces {
		hazType := tr.DominantHazard()
		for end := window; end <= tr.Len(); end++ {
			win := make([][]float64, window)
			for k := 0; k < window; k++ {
				win[k] = featuresFromSample(&tr.Samples[end-window+k])
			}
			label := 0
			if anyHazardAtOrAfter(tr, tr.Samples[end-1].Step) {
				if multiClass {
					label = int(hazType)
				} else {
					label = 1
				}
			}
			X = append(X, win)
			y = append(y, label)
		}
	}
	return X, y
}

func anyHazardAtOrAfter(tr *trace.Trace, step int) bool {
	for i := step; i < tr.Len(); i++ {
		if tr.Samples[i].Hazard != trace.HazardNone {
			return true
		}
	}
	return false
}

func subsample(X [][]float64, y []int, limit int, rng *rand.Rand) ([][]float64, []int) {
	if len(X) <= limit {
		return X, y
	}
	idx := rng.Perm(len(X))[:limit]
	outX := make([][]float64, limit)
	outY := make([]int, limit)
	for i, j := range idx {
		outX[i] = X[j]
		outY[i] = y[j]
	}
	return outX, outY
}

func subsampleSeq(X [][][]float64, y []int, limit int, rng *rand.Rand) ([][][]float64, []int) {
	if len(X) <= limit {
		return X, y
	}
	idx := rng.Perm(len(X))[:limit]
	outX := make([][][]float64, limit)
	outY := make([]int, limit)
	for i, j := range idx {
		outX[i] = X[j]
		outY[i] = y[j]
	}
	return outX, outY
}

// sameWindows fails unless the drawn set equals the oracle's bit for
// bit: labels, window shapes and every feature's bits.
func sameWindows(t *testing.T, what string, got, want [][][]float64, gotY, wantY []int) {
	t.Helper()
	if len(got) != len(want) || len(gotY) != len(wantY) || len(got) != len(gotY) {
		t.Fatalf("%s: %d windows / %d labels, want %d / %d", what, len(got), len(gotY), len(want), len(wantY))
	}
	for i := range want {
		if gotY[i] != wantY[i] {
			t.Fatalf("%s: label %d = %d, want %d", what, i, gotY[i], wantY[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: window %d has %d frames, want %d", what, i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if len(got[i][k]) != len(want[i][k]) {
				t.Fatalf("%s: window %d frame %d has %d features, want %d", what, i, k, len(got[i][k]), len(want[i][k]))
			}
			for f := range want[i][k] {
				if math.Float64bits(got[i][k][f]) != math.Float64bits(want[i][k][f]) {
					t.Fatalf("%s: window %d frame %d feature %d = %v, want %v", what, i, k, f, got[i][k][f], want[i][k][f])
				}
			}
		}
	}
}

// checkDrawMatchesOracle draws rows (window 1) or windows with the
// sampler and with the oracle from the same seed and requires identical
// sets and an identical next draw from the rng afterwards.
func checkDrawMatchesOracle(t *testing.T, traces []*trace.Trace, window, limit int, multiClass bool) {
	t.Helper()
	what := fmt.Sprintf("window %d, limit %d, multiClass %v", window, limit, multiClass)
	rng, oracleRng := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	var got, want [][][]float64
	var gotY, wantY []int
	if window == 1 {
		rows, y, err := monitor.DrawRows(traces, multiClass, limit, rng)
		if err != nil {
			t.Fatal(err)
		}
		wantRows, wy := TrainingData(traces, multiClass)
		wantRows, wantY = subsample(wantRows, wy, limit, oracleRng)
		for i := range rows {
			got = append(got, [][]float64{rows[i]})
		}
		for i := range wantRows {
			want = append(want, [][]float64{wantRows[i]})
		}
		gotY = y
	} else {
		var err error
		if got, gotY, err = monitor.DrawWindows(traces, window, multiClass, limit, rng); err != nil {
			t.Fatal(err)
		}
		want, wantY = SequenceTrainingData(traces, window, multiClass)
		want, wantY = subsampleSeq(want, wantY, limit, oracleRng)
	}
	sameWindows(t, what, got, want, gotY, wantY)
	if g, w := rng.Int63(), oracleRng.Int63(); g != w {
		t.Fatalf("%s: next rng draw %d, want %d", what, g, w)
	}
}

// positions counts the oracle's training positions for a window.
func positions(traces []*trace.Trace, window int) int {
	n := 0
	for _, tr := range traces {
		n += max(tr.Len()-window+1, 0)
	}
	return n
}

// synthTraces builds labeled traces with random features, lengths from
// 0 to 40 (some shorter than a window), hazard-free traces, H1- and
// H2-dominated ones, and hazards anywhere, including the last sample.
func synthTraces(seed int64, n int) []*trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trace.Trace, n)
	for t := range out {
		tr := &trace.Trace{CycleMin: 5}
		length := rng.Intn(41)
		hazardRate := []float64{0, 0.05, 0.3}[rng.Intn(3)]
		for i := 0; i < length; i++ {
			s := trace.Sample{
				Step: i, CGM: 40 + 300*rng.Float64(), BGPrime: rng.NormFloat64(),
				IOB: 5 * rng.Float64(), IOBPrime: 0.01 * rng.NormFloat64(),
				Rate: 4 * rng.Float64(), Action: trace.Action(rng.Intn(5)),
			}
			if rng.Float64() < hazardRate {
				s.Hazard = trace.HazardType(1 + rng.Intn(2))
			}
			tr.Samples = append(tr.Samples, s)
		}
		out[t] = tr
	}
	return out
}

// TestDrawMatchesBuildAllOracle checks the sampler against the
// build-all-then-subsample oracle on synthetic traces: limits below,
// equal to and above the position count (the last two draw nothing),
// binary and multi-class labels, windows of 1 and 6.
func TestDrawMatchesBuildAllOracle(t *testing.T) {
	traces := synthTraces(3, 60)
	for _, window := range []int{1, 6} {
		n := positions(traces, window)
		for _, limit := range []int{0, 1, n / 3, n - 1, n, n + 1, 2 * n} {
			for _, multiClass := range []bool{false, true} {
				checkDrawMatchesOracle(t, traces, window, limit, multiClass)
			}
		}
	}
	for _, window := range []int{1, 6} {
		checkDrawMatchesOracle(t, nil, window, 10, false)
	}
}

// TestDrawMatchesBuildAllOracleQuickCampaign checks the sampler against
// the oracle on the quick campaign at the quick suite's limits (3,000
// of its rows, 500 of its windows: both draw a permutation). The
// oracle labels a sample by its Step, the sampler by its index, so the
// campaign's steps must be the indices.
func TestDrawMatchesBuildAllOracleQuickCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick campaign")
	}
	traces := quickCampaign(t, Glucosym())
	for _, tr := range traces {
		for i := range tr.Samples {
			if tr.Samples[i].Step != i {
				t.Fatalf("trace %q: sample %d has step %d", tr.PatientID, i, tr.Samples[i].Step)
			}
		}
	}
	for _, multiClass := range []bool{false, true} {
		checkDrawMatchesOracle(t, traces, 1, 3000, multiClass)
		checkDrawMatchesOracle(t, traces, 6, 500, multiClass)
	}
}

// TestDrawAllocsScaleIndependent pins that drawing a training set
// costs the same allocations however large the campaign it is drawn
// from: the quick campaign and that campaign twice over.
func TestDrawAllocsScaleIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick campaign")
	}
	traces := quickCampaign(t, Glucosym())
	doubled := append(append([]*trace.Trace(nil), traces...), traces...)
	allocs := func(traces []*trace.Trace, window int) float64 {
		return testing.AllocsPerRun(5, func() {
			rng := rand.New(rand.NewSource(1))
			var err error
			if window == 1 {
				_, _, err = monitor.DrawRows(traces, false, 1000, rng)
			} else {
				_, _, err = monitor.DrawWindows(traces, window, false, 500, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, window := range []int{1, 6} {
		if a, b := allocs(traces, window), allocs(doubled, window); a != b {
			t.Errorf("window %d: %v allocations from %d traces, %v from %d", window, a, len(traces), b, len(doubled))
		}
	}
}

// BenchmarkDrawTrainingSet draws the paper workload's ML training sets
// — 10,000 Eq. 7 rows and 2,000 Eq. 8 windows of 6 — from the training
// folds of a thin-32 glucosym campaign (210 traces, 31,500 rows, 30,450
// windows): the build-all-then-subsample oracle against the sampler,
// which builds only what it keeps. Each op draws both sets.
func BenchmarkDrawTrainingSet(b *testing.B) {
	all, err := Run(CampaignConfig{Platform: Glucosym(), Scenarios: ScenarioSubset(32)})
	if err != nil {
		b.Fatal(err)
	}
	train := stllearn.TrainingSet(stllearn.Folds(all, 4), 0)
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			rng := rand.New(rand.NewSource(1))
			X, y := TrainingData(train, false)
			subsample(X, y, 10000, rng)
			XSeq, ySeq := SequenceTrainingData(train, 6, false)
			subsampleSeq(XSeq, ySeq, 2000, rng)
		}
	})
	b.Run("draw", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			rng := rand.New(rand.NewSource(1))
			if _, _, err := monitor.DrawRows(train, false, 10000, rng); err != nil {
				b.Fatal(err)
			}
			if _, _, err := monitor.DrawWindows(train, 6, false, 2000, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}
