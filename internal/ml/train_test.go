package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// trainWorkers are the worker counts the batched trainers must agree at.
func trainWorkers() []int { return []int{1, 2, 3, runtime.GOMAXPROCS(0)} }

// windows builds n windows of t frames of d features, labeled by the
// sign of a noisy trend in the first feature (classes 2 or 3).
func windows(n, t, d, classes int, rng *rand.Rand) ([][][]float64, []int) {
	X := make([][][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = rng.Intn(classes)
		slope := float64(y[i]) - float64(classes-1)/2
		w := make([][]float64, t)
		for tt := range w {
			frame := make([]float64, d)
			for j := range frame {
				frame[j] = rng.NormFloat64()
			}
			frame[0] += slope * float64(tt)
			w[tt] = frame
		}
		X[i] = w
	}
	return X, y
}

// sameBits reports the first index where two weight vectors differ in
// any bit, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestBatchedLSTMTrainingMatchesPerSample(t *testing.T) {
	cases := []struct {
		name      string
		n, d      int
		classes   int
		cfg       LSTMConfig
		earlyStop bool
	}{
		// 93 training windows: five mini-batches of 16 and one of 13.
		{name: "ragged", n: 103, d: 5, classes: 2, cfg: LSTMConfig{Units: []int{7, 5}, Window: 4, Epochs: 2, BatchSize: 16}},
		// 50 training windows: the last mini-batch has 2, under one tile.
		{name: "ragged-under-tile", n: 56, d: 3, classes: 2, cfg: LSTMConfig{Units: []int{6, 4}, Window: 5, Epochs: 2, BatchSize: 16}},
		{name: "three-classes", n: 90, d: 4, classes: 3, cfg: LSTMConfig{Units: []int{8, 4}, Window: 6, Epochs: 2, BatchSize: 12}},
		{name: "one-layer", n: 80, d: 6, classes: 2, cfg: LSTMConfig{Units: []int{9}, Window: 3, Epochs: 3, BatchSize: 8}},
		{name: "early-stop", n: 60, d: 2, classes: 2, cfg: LSTMConfig{Units: []int{5, 3}, Window: 4, Epochs: 12, BatchSize: 4, Patience: 1, LearningRate: 0.2}, earlyStop: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, y := windows(tc.n, tc.cfg.Window, tc.d, tc.classes, rand.New(rand.NewSource(int64(tc.n))))
			cfg := tc.cfg
			cfg.Classes = tc.classes
			want, epochs, err := fitLSTMPerSample(X, y, cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if stopped := epochs < cfg.Epochs; stopped != tc.earlyStop {
				t.Fatalf("per-sample trainer ran %d of %d epochs; want early stopping %v", epochs, cfg.Epochs, tc.earlyStop)
			}
			for _, workers := range trainWorkers() {
				got, err := fitLSTM(X, y, cfg, rand.New(rand.NewSource(1)), workers)
				if err != nil {
					t.Fatal(err)
				}
				for li := range want.layers {
					if i := sameBits(got.layers[li].w, want.layers[li].w); i >= 0 {
						t.Fatalf("%d workers: layer %d weight %d = %v, per-sample %v", workers, li, i, got.layers[li].w[i], want.layers[li].w[i])
					}
				}
				if i := sameBits(got.head.w, want.head.w); i >= 0 {
					t.Fatalf("%d workers: head weight %d differs", workers, i)
				}
				if i := sameBits(got.head.b, want.head.b); i >= 0 {
					t.Fatalf("%d workers: head bias %d differs", workers, i)
				}
			}
		})
	}
}

func TestBatchedMLPTrainingMatchesPerSample(t *testing.T) {
	cases := []struct {
		name      string
		n, d      int
		cfg       MLPConfig
		earlyStop bool
	}{
		// 207 training rows: six mini-batches of 32 and one of 15.
		{name: "ragged-dropout", n: 230, d: 6, cfg: MLPConfig{Hidden: []int{16, 8}, Epochs: 3, BatchSize: 32, Dropout: 0.2}},
		// 99 training rows: the last mini-batch has 3, under one tile.
		{name: "ragged-under-tile", n: 110, d: 5, cfg: MLPConfig{Hidden: []int{7, 5}, Epochs: 2, BatchSize: 16, Dropout: 0.5}},
		{name: "three-classes", n: 150, d: 6, cfg: MLPConfig{Hidden: []int{12}, Classes: 3, Epochs: 3, BatchSize: 20}},
		{name: "no-dropout", n: 120, d: 3, cfg: MLPConfig{Hidden: []int{10, 6, 5}, Epochs: 2, BatchSize: 24, Dropout: 0}},
		{name: "early-stop", n: 120, d: 4, cfg: MLPConfig{Hidden: []int{9}, Classes: 3, Epochs: 15, BatchSize: 8, Patience: 1, LearningRate: 0.3}, earlyStop: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, y := syntheticData(tc.n, tc.d, rand.New(rand.NewSource(int64(tc.n))))
			if tc.cfg.Classes != 3 {
				for i := range y {
					y[i] %= 2
				}
			}
			want, epochs, err := fitMLPPerSample(X, y, tc.cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if stopped := epochs < tc.cfg.Epochs; stopped != tc.earlyStop {
				t.Fatalf("per-sample trainer ran %d of %d epochs; want early stopping %v", epochs, tc.cfg.Epochs, tc.earlyStop)
			}
			for _, workers := range trainWorkers() {
				got, err := fitMLP(X, y, tc.cfg, rand.New(rand.NewSource(1)), workers)
				if err != nil {
					t.Fatal(err)
				}
				for li := range want.layers {
					if i := sameBits(got.layers[li].w, want.layers[li].w); i >= 0 {
						t.Fatalf("%d workers: layer %d weight %d = %v, per-sample %v", workers, li, i, got.layers[li].w[i], want.layers[li].w[i])
					}
					if i := sameBits(got.layers[li].b, want.layers[li].b); i >= 0 {
						t.Fatalf("%d workers: layer %d bias %d differs", workers, li, i)
					}
				}
			}
		})
	}
}

// numericGrad is the central difference of loss in *p.
func numericGrad(p *float64, loss func() float64) float64 {
	const eps = 1e-6
	orig := *p
	*p = orig + eps
	fp := loss()
	*p = orig - eps
	fm := loss()
	*p = orig
	return (fp - fm) / (2 * eps)
}

// checkGrads compares every analytic gradient with the numerical one.
func checkGrads(t *testing.T, name string, params, grads []float64, loss func() float64) {
	t.Helper()
	for i := range params {
		num := numericGrad(&params[i], loss)
		if math.Abs(num-grads[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("%s[%d]: numerical %v vs analytic %v", name, i, num, grads[i])
		}
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	// Numerical check of the trainer's gradients for a two-layer stack and
	// its head on one sequence, through the inference forward pass.
	rng := rand.New(rand.NewSource(9))
	m := &LSTM{
		cfg:    LSTMConfig{Units: []int{3, 2}, Window: 3}.withDefaults(),
		layers: []*lstmLayer{newLSTMLayer(2, 3, 0.001, rng), newLSTMLayer(3, 2, 0.001, rng)},
		head:   newDenseLayer(2, 2, 0.001, rng),
		std:    &Standardizer{Mean: []float64{0, 0}, Std: []float64{1, 1}},
	}
	for i := range m.head.b {
		m.head.b[i] = rng.NormFloat64()
	}
	seq := [][]float64{{0.5, -0.2}, {0.1, 0.9}, {-0.4, 0.3}}
	const label = 1
	tr := newLSTMTrainer(m, [][][]float64{seq}, []int{label}, nil, 1)
	defer tr.team.stop()
	tr.gradients([]int{0})
	loss := func() float64 { return crossEntropy(m.PredictProba(seq), label) }
	for li, l := range m.layers {
		checkGrads(t, fmt.Sprintf("layer %d", li), l.w, l.g, loss)
	}
	checkGrads(t, "head w", m.head.w, m.head.gw, loss)
	checkGrads(t, "head b", m.head.b, m.head.gb, loss)
}

func TestMLPGradientCheck(t *testing.T) {
	// Numerical check of the trainer's gradients without dropout, on one
	// sample, through the inference forward pass.
	rng := rand.New(rand.NewSource(4))
	m := &MLP{
		cfg:    MLPConfig{Hidden: []int{6, 5}, Classes: 3, Dropout: 0}.withDefaults(),
		layers: []*denseLayer{newDenseLayer(3, 6, 0.001, rng), newDenseLayer(6, 5, 0.001, rng), newDenseLayer(5, 3, 0.001, rng)},
		std:    &Standardizer{Mean: []float64{0, 0, 0}, Std: []float64{1, 1, 1}},
	}
	for _, l := range m.layers {
		for i := range l.b {
			l.b[i] = rng.NormFloat64() * 0.5
		}
	}
	x := []float64{0.7, -1.1, 0.4}
	const label = 2
	tr := newMLPTrainer(m, [][]float64{x}, []int{label}, nil, rng, 1)
	defer tr.team.stop()
	tr.gradients([]int{0})
	// The check perturbs w in place, so the loss derives the forward
	// pass's transposed weights again before it scores.
	loss := func() float64 {
		for _, l := range m.layers {
			l.transpose()
		}
		return crossEntropy(m.PredictProba(x), label)
	}
	for li, l := range m.layers {
		checkGrads(t, fmt.Sprintf("layer %d w", li), l.w, l.gw, loss)
		checkGrads(t, fmt.Sprintf("layer %d b", li), l.b, l.gb, loss)
	}
}

func TestTrainingAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := windows(40, 6, 6, 2, rng)
	m, _, valIdx, err := newLSTM(X, y, LSTMConfig{Units: []int{8, 4}, BatchSize: 16}, rng)
	if err != nil {
		t.Fatal(err)
	}
	lt := newLSTMTrainer(m, X, y, valIdx, 2)
	defer lt.team.stop()
	batch := []int{3, 1, 4, 15, 9, 2, 6, 5, 35, 8, 7, 9, 32, 3, 8, 4}
	lt.gradients(batch) // warm
	if a := testing.AllocsPerRun(10, func() { lt.gradients(batch) }); a != 0 {
		t.Errorf("LSTM mini-batch allocates %v times, want 0", a)
	}
	Xm, ym := syntheticData(100, 6, rng)
	mm, _, valIdx, err := newMLP(Xm, ym, MLPConfig{Hidden: []int{8, 4}, Classes: 3, BatchSize: 16}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mt := newMLPTrainer(mm, Xm, ym, valIdx, rng, 2)
	defer mt.team.stop()
	mt.gradients(batch) // warm
	if a := testing.AllocsPerRun(10, func() { mt.gradients(batch) }); a != 0 {
		t.Errorf("MLP mini-batch allocates %v times, want 0", a)
	}
}

// The training benchmarks run one epoch at the paper workload's shapes
// (perfbench's paper suite: glucosym features, the default SuiteConfig
// architectures), three ways: the per-sample oracle, the batched trainer
// on one worker, and the batched trainer on GOMAXPROCS workers.

func BenchmarkTrainLSTM(b *testing.B) {
	X, y := windows(2000, 6, 6, 2, rand.New(rand.NewSource(1)))
	cfg := LSTMConfig{Units: []int{32, 16}, Window: 6, Epochs: 1, BatchSize: 32}
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := fitLSTMPerSample(X, y, cfg, rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fitLSTM(X, y, cfg, rand.New(rand.NewSource(1)), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTrainMLP(b *testing.B) {
	X, y := syntheticData(10000, 6, rand.New(rand.NewSource(1)))
	for i := range y {
		y[i] %= 2
	}
	cfg := MLPConfig{Hidden: []int{64, 32}, Epochs: 1, BatchSize: 64, Dropout: 0.2}
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := fitMLPPerSample(X, y, cfg, rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fitMLP(X, y, cfg, rand.New(rand.NewSource(1)), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
