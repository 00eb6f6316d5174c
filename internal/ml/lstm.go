package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
)

// LSTMConfig tunes the stacked-LSTM baseline. The zero value selects the
// paper's best architecture (Section IV-C4): two stacked LSTM layers of
// 128 and 64 units over a 6-step input window, a softmax head, Adam at
// 0.001, and early stopping.
type LSTMConfig struct {
	Units        []int   // default {128, 64}
	Classes      int     // default 2
	Window       int     // expected timesteps, default 6
	LearningRate float64 // default 0.001
	Epochs       int     // default 20
	BatchSize    int     // default 32
	ValFraction  float64 // default 0.1
	Patience     int     // default 4
	ClipNorm     float64 // gradient clipping, default 5
}

func (c LSTMConfig) withDefaults() LSTMConfig {
	if len(c.Units) == 0 {
		c.Units = []int{128, 64}
	}
	if c.Classes <= 0 {
		c.Classes = 2
	}
	if c.Window <= 0 {
		c.Window = 6
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.001
	}
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.ValFraction <= 0 || c.ValFraction >= 0.5 {
		c.ValFraction = 0.1
	}
	if c.Patience <= 0 {
		c.Patience = 4
	}
	if c.ClipNorm <= 0 {
		c.ClipNorm = 5
	}
	return c
}

// lstmLayer holds one LSTM layer's parameters in four gate blocks
// (input, forget, cell, output), each sized units x (in + units + 1).
type lstmLayer struct {
	in, units int
	w         []float64 // 4 * units * (in + units + 1)
	g         []float64
	adam      *Adam
}

func newLSTMLayer(in, units int, lr float64, rng *rand.Rand) *lstmLayer {
	n := 4 * units * (in + units + 1)
	l := &lstmLayer{in: in, units: units, w: make([]float64, n), g: make([]float64, n)}
	scale := 1 / math.Sqrt(float64(in+units))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	// Forget-gate bias initialized to 1 (standard trick for gradient flow).
	stride := in + units + 1
	forgetBase := 1 * units * stride
	for u := 0; u < units; u++ {
		l.w[forgetBase+u*stride+in+units] = 1
	}
	l.adam = NewAdam(n, lr)
	return l
}

// gateWeights returns the weight row for gate g (0=i,1=f,2=g,3=o), unit u.
func (l *lstmLayer) gateRow(w []float64, gate, u int) []float64 {
	stride := l.in + l.units + 1
	base := (gate*l.units + u) * stride
	return w[base : base+stride]
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// On amd64, math.Exp runs exp_amd64.s, which fuses multiply-adds where
// the CPU has FMA; elsewhere it runs Go's exp. The paths differ in the
// last bit of Exp(expProbe), which reads expFMABits only on the fused
// path.
const (
	expProbe   = -2.421875
	expFMABits = 0x3fb6b8a6925d28af
)

// step scales the mini-batch gradient to a mean, clips its norm and
// applies Adam. The gradient kernel overwrites l.g every mini-batch, so
// nothing needs zeroing afterwards.
func (l *lstmLayer) step(batch, clip float64) {
	inv := 1 / batch
	var norm float64
	for i := range l.g {
		l.g[i] *= inv
		norm += l.g[i] * l.g[i]
	}
	norm = math.Sqrt(norm)
	if norm > clip {
		s := clip / norm
		for i := range l.g {
			l.g[i] *= s
		}
	}
	l.adam.Step(l.w, l.g)
}

// LSTM is the stacked-LSTM baseline monitor model: LSTM layers followed
// by a dense softmax head applied to the final hidden state.
type LSTM struct {
	cfg    LSTMConfig
	layers []*lstmLayer
	head   *denseLayer
	std    *Standardizer
}

// FitLSTM trains the model on windows (samples x timesteps x features).
// Each mini-batch is split across runtime.GOMAXPROCS(0) workers; the
// trained weights do not depend on that number. Frames are standardized
// as the rows of one matrix, window after window, so a non-finite value
// in window i at timestep t is reported at row i*Window+t.
func FitLSTM(X [][][]float64, y []int, cfg LSTMConfig, rng *rand.Rand) (*LSTM, error) {
	return fitLSTM(X, y, cfg, rng, runtime.GOMAXPROCS(0))
}

// fitLSTM is FitLSTM on a given number of workers.
func fitLSTM(X [][][]float64, y []int, cfg LSTMConfig, rng *rand.Rand, workers int) (*LSTM, error) {
	m, trainIdx, valIdx, err := newLSTM(X, y, cfg, rng)
	if err != nil {
		return nil, err
	}
	tr := newLSTMTrainer(m, X, y, valIdx, workers)
	defer tr.team.stop()
	cfg = m.cfg
	bestVal := math.Inf(1)
	bestW := m.snapshot()
	bad := 0
	order := append([]int(nil), trainIdx...)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			tr.gradients(order[start:end])
			batch := float64(end - start)
			for _, l := range m.layers {
				l.step(batch, cfg.ClipNorm)
			}
			m.head.step(batch)
		}
		valLoss := tr.valLoss()
		if valLoss < bestVal-1e-6 {
			bestVal = valLoss
			bestW = m.snapshot()
			bad = 0
		} else {
			bad++
			if bad >= cfg.Patience {
				break
			}
		}
	}
	m.restore(bestW)
	return m, nil
}

// newLSTM validates the training set, fits the standardizer, and draws
// the initial weights and the validation split from rng: everything
// training does before its first epoch.
func newLSTM(X [][][]float64, y []int, cfg LSTMConfig, rng *rand.Rand) (m *LSTM, trainIdx, valIdx []int, err error) {
	cfg = cfg.withDefaults()
	if len(X) == 0 {
		return nil, nil, nil, fmt.Errorf("ml: empty training set")
	}
	if len(X) != len(y) {
		return nil, nil, nil, fmt.Errorf("ml: %d windows but %d labels", len(X), len(y))
	}
	if rng == nil {
		return nil, nil, nil, fmt.Errorf("ml: nil rng")
	}
	for i, w := range X {
		if len(w) != cfg.Window {
			return nil, nil, nil, fmt.Errorf("ml: window %d has %d timesteps, want %d", i, len(w), cfg.Window)
		}
	}
	if err := validateLabels(y, cfg.Classes); err != nil {
		return nil, nil, nil, err
	}
	// Standardize over flattened frames.
	flat := make([][]float64, 0, len(X)*cfg.Window)
	for _, w := range X {
		flat = append(flat, w...)
	}
	std, err := FitStandardizer(flat)
	if err != nil {
		return nil, nil, nil, err
	}

	m = &LSTM{cfg: cfg, std: std}
	in := len(X[0][0])
	dims := append([]int{in}, cfg.Units...)
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, newLSTMLayer(dims[i], dims[i+1], cfg.LearningRate, rng))
	}
	m.head = newDenseLayer(cfg.Units[len(cfg.Units)-1], cfg.Classes, cfg.LearningRate, rng)
	trainIdx, valIdx = TrainTestSplit(len(X), cfg.ValFraction, rng)
	return m, trainIdx, valIdx, nil
}

func (m *LSTM) snapshot() [][]float64 {
	var out [][]float64
	for _, l := range m.layers {
		w := make([]float64, len(l.w))
		copy(w, l.w)
		out = append(out, w)
	}
	hw := make([]float64, len(m.head.w))
	copy(hw, m.head.w)
	hb := make([]float64, len(m.head.b))
	copy(hb, m.head.b)
	out = append(out, hw, hb)
	return out
}

func (m *LSTM) restore(weights [][]float64) {
	for i, l := range m.layers {
		copy(l.w, weights[i])
	}
	copy(m.head.w, weights[len(m.layers)])
	copy(m.head.b, weights[len(m.layers)+1])
	m.head.transpose()
}

// PredictProba returns class probabilities for one window (timesteps x
// features), which must have Window() timesteps. Each call scores it on a one-lane LSTMBatch of its
// own, so concurrent callers share only the read-only weights.
func (m *LSTM) PredictProba(window [][]float64) []float64 {
	if len(window) != m.cfg.Window {
		panic(fmt.Sprintf("ml: LSTM window has %d timesteps, model was trained on %d", len(window), m.cfg.Window))
	}
	out := make([]float64, m.cfg.Classes)
	m.NewBatch().PredictProbaSeqBatchInto([][][]float64{window}, out)
	return out
}

// Predict returns the argmax class of one window.
func (m *LSTM) Predict(window [][]float64) int { return argmax(m.PredictProba(window)) }

// Classes returns the number of classes.
func (m *LSTM) Classes() int { return m.cfg.Classes }

// Window returns the expected number of timesteps.
func (m *LSTM) Window() int { return m.cfg.Window }
