package monitor

import (
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/trace"
)

// randObs builds a plausible observation stream.
func randObs(rng *rand.Rand) Observation {
	return Observation{
		CGM:      60 + 250*rng.Float64(),
		BGPrime:  -3 + 6*rng.Float64(),
		IOB:      5 * rng.Float64(),
		IOBPrime: -0.2 + 0.4*rng.Float64(),
		Rate:     4 * rng.Float64(),
		Action:   trace.Action(1 + rng.Intn(4)),
	}
}

func trainSmallMLP(t *testing.T, rng *rand.Rand) *ml.MLP {
	t.Helper()
	X := make([][]float64, 400)
	y := make([]int, len(X))
	for i := range X {
		o := randObs(rng)
		X[i] = features(o)
		if o.CGM < 90 {
			y[i] = 1
		} else if o.CGM > 250 {
			y[i] = 2
		}
	}
	m, err := ml.FitMLP(X, y, ml.MLPConfig{Hidden: []int{24, 12}, Classes: 3, Epochs: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBatchMLMatchesPerSessionMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mlp := trainSmallMLP(t, rng)

	per, err := NewMLMonitor("MLP", mlp.NewBatch())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewBatchML("MLP", mlp.NewBatch())
	if err != nil {
		t.Fatal(err)
	}

	const lanesN = 33
	batch.ResetLanes(lanesN)
	lanes := make([]int, lanesN)
	obs := make([]Observation, lanesN)
	out := make([]Verdict, lanesN)
	for step := 0; step < 20; step++ {
		for k := range lanes {
			lanes[k] = k
			obs[k] = randObs(rng)
		}
		batch.StepBatch(lanes, obs, out)
		for k := range lanes {
			if want := per.Step(obs[k]); out[k] != want {
				t.Fatalf("step %d lane %d: batch %+v, per-session %+v", step, k, out[k], want)
			}
		}
	}
}

// trainSmallLSTM fits a one-layer LSTM on random observation windows,
// labelling a window positive when its last glucose is low.
func trainSmallLSTM(t *testing.T, rng *rand.Rand, window int) *ml.LSTM {
	t.Helper()
	X := make([][][]float64, 150)
	y := make([]int, len(X))
	for i := range X {
		w := make([][]float64, window)
		var lastCGM float64
		for tt := range w {
			o := randObs(rng)
			lastCGM = o.CGM
			w[tt] = features(o)
		}
		X[i] = w
		if lastCGM < 90 {
			y[i] = 1
		}
	}
	lstm, err := ml.FitLSTM(X, y, ml.LSTMConfig{Units: []int{10}, Window: window, Epochs: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return lstm
}

func TestBatchSequenceMatchesPerSessionMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const window = 4
	lstm := trainSmallLSTM(t, rng, window)
	var err error

	const lanesN = 7
	perLane := make([]*Lane, lanesN)
	for i := range perLane {
		perLane[i], err = NewSequenceMonitor("LSTM", lstm.NewBatch(), window)
		if err != nil {
			t.Fatal(err)
		}
	}
	batch, err := NewBatchSequence("LSTM", lstm.NewBatch(), window)
	if err != nil {
		t.Fatal(err)
	}
	batch.ResetLanes(lanesN)

	// Lanes step at different cadences: lane k skips steps where
	// (step+k)%3 == 0, so windows fill at different times.
	var lanes []int
	var obs []Observation
	var out []Verdict
	for step := 0; step < 25; step++ {
		lanes, obs = lanes[:0], obs[:0]
		for k := 0; k < lanesN; k++ {
			if (step+k)%3 == 0 {
				continue
			}
			lanes = append(lanes, k)
			obs = append(obs, randObs(rng))
		}
		if cap(out) < len(obs) {
			out = make([]Verdict, len(obs))
		}
		out = out[:len(obs)]
		batch.StepBatch(lanes, obs, out)
		for i, k := range lanes {
			if want := perLane[k].Step(obs[i]); out[i] != want {
				t.Fatalf("step %d lane %d: batch %+v, per-session %+v", step, k, out[i], want)
			}
		}
	}

	// Resetting one lane restarts its window fill without touching others.
	batch.ResetLane(2)
	perLane[2].Reset()
	for step := 0; step < window+1; step++ {
		o := randObs(rng)
		lanes = append(lanes[:0], 2)
		obs = append(obs[:0], o)
		out = out[:1]
		batch.StepBatch(lanes, obs, out)
		if want := perLane[2].Step(o); out[0] != want {
			t.Fatalf("post-reset step %d: batch %+v, per-session %+v", step, out[0], want)
		}
	}
}

// TestNewBatchSequenceWindowMustMatchModel: the batched kernel reads
// exactly the trained number of frames per lane, so a monitor window
// shorter or longer than the model's is rejected at construction
// instead of scoring stale or neighbouring frames.
func TestNewBatchSequenceWindowMustMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const trained = 6
	lstm := trainSmallLSTM(t, rng, trained)
	for _, tc := range []struct {
		name   string
		window int
		ok     bool
	}{
		{"shorter", trained - 2, false},
		{"equal", trained, true},
		{"longer", trained + 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBatchSequence("LSTM", lstm.NewBatch(), tc.window)
			if !tc.ok {
				if err == nil {
					t.Fatalf("window %d accepted for a model trained at %d", tc.window, trained)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			per, err := NewSequenceMonitor("LSTM", lstm.NewBatch(), tc.window)
			if err != nil {
				t.Fatal(err)
			}
			b.ResetLanes(1)
			out := make([]Verdict, 1)
			for step := 0; step < 3*trained; step++ {
				o := randObs(rng)
				b.StepBatch([]int{0}, []Observation{o}, out)
				if want := per.Step(o); out[0] != want {
					t.Fatalf("step %d: batch %+v, per-session %+v", step, out[0], want)
				}
			}
		})
	}
}
