package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
)

// MLPConfig tunes the multi-layer perceptron baseline. The zero value
// selects the paper's architecture: two fully connected ReLU layers of
// 256 and 128 neurons, a softmax head, Adam at lr 0.001, dropout, and
// early stopping on a held-out validation split.
type MLPConfig struct {
	Hidden       []int   // default {256, 128}
	Classes      int     // default 2
	LearningRate float64 // default 0.001
	Epochs       int     // default 30
	BatchSize    int     // default 64
	Dropout      float64 // default 0.2
	ValFraction  float64 // default 0.1
	Patience     int     // early-stopping patience in epochs, default 5
}

func (c MLPConfig) withDefaults() MLPConfig {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{256, 128}
	}
	if c.Classes <= 0 {
		c.Classes = 2
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.001
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		c.Dropout = 0.2
	}
	if c.ValFraction <= 0 || c.ValFraction >= 0.5 {
		c.ValFraction = 0.1
	}
	if c.Patience <= 0 {
		c.Patience = 5
	}
	return c
}

// denseLayer is one fully connected layer with flat parameters.
type denseLayer struct {
	in, out int
	w       []float64 // out x in
	// wt is w transposed (in x out), the k-major operand of
	// forwardBatchDense. transpose derives it wherever w changes: at
	// initialization, after each Adam step and on restore.
	wt    []float64
	b     []float64
	gw    []float64
	gb    []float64
	adamW *Adam
	adamB *Adam
}

func newDenseLayer(in, out int, lr float64, rng *rand.Rand) *denseLayer {
	l := &denseLayer{
		in: in, out: out,
		w:  make([]float64, in*out),
		wt: make([]float64, in*out),
		b:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
	}
	// He initialization for ReLU networks.
	scale := math.Sqrt(2 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	l.transpose()
	l.adamW = NewAdam(len(l.w), lr)
	l.adamB = NewAdam(len(l.b), lr)
	return l
}

// forward computes out = W·x + b.
func (l *denseLayer) forward(x, out []float64) {
	for o := 0; o < l.out; o++ {
		sum := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, xi := range x {
			sum += row[i] * xi
		}
		out[o] = sum
	}
}

// step scales the mini-batch gradient to a mean and applies Adam. The
// gradient kernel overwrites gw and gb every mini-batch, so nothing
// needs zeroing afterwards.
func (l *denseLayer) step(batch float64) {
	inv := 1 / batch
	for i := range l.gw {
		l.gw[i] *= inv
	}
	for i := range l.gb {
		l.gb[i] *= inv
	}
	l.adamW.Step(l.w, l.gw)
	l.adamB.Step(l.b, l.gb)
	l.transpose()
}

// transpose derives wt from w.
//
//fleetvet:noalloc
func (l *denseLayer) transpose() {
	for o := 0; o < l.out; o++ {
		for i, v := range l.w[o*l.in : (o+1)*l.in] {
			l.wt[i*l.out+o] = v
		}
	}
}

// MLP is the multi-layer perceptron baseline monitor model. Its
// weights are only read after training, so one model may serve many
// goroutines concurrently: PredictProba scores each call on a one-lane
// MLPBatch of its own, and each monitor or fleet shard holds its own
// MLPBatch (NewBatch) for scratch.
type MLP struct {
	cfg    MLPConfig
	layers []*denseLayer
	std    *Standardizer
}

var _ Classifier = (*MLP)(nil)

// FitMLP trains the network. Inputs are standardized internally. Each
// mini-batch is split across runtime.GOMAXPROCS(0) workers; the trained
// weights do not depend on that number.
func FitMLP(X [][]float64, y []int, cfg MLPConfig, rng *rand.Rand) (*MLP, error) {
	return fitMLP(X, y, cfg, rng, runtime.GOMAXPROCS(0))
}

// fitMLP is FitMLP on a given number of workers.
func fitMLP(X [][]float64, y []int, cfg MLPConfig, rng *rand.Rand, workers int) (*MLP, error) {
	m, trainIdx, valIdx, err := newMLP(X, y, cfg, rng)
	if err != nil {
		return nil, err
	}
	tr := newMLPTrainer(m, X, y, valIdx, rng, workers)
	defer tr.team.stop()
	cfg = m.cfg
	bestValLoss := math.Inf(1)
	bestWeights := m.snapshot()
	badEpochs := 0

	order := make([]int, len(trainIdx))
	copy(order, trainIdx)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			tr.gradients(order[start:end])
			batch := float64(end - start)
			for _, l := range m.layers {
				l.step(batch)
			}
		}
		// Early stopping on held-out loss.
		valLoss := tr.valLoss()
		if valLoss < bestValLoss-1e-6 {
			bestValLoss = valLoss
			bestWeights = m.snapshot()
			badEpochs = 0
		} else {
			badEpochs++
			if badEpochs >= cfg.Patience {
				break
			}
		}
	}
	m.restore(bestWeights)
	return m, nil
}

// newMLP validates the training set, fits the standardizer, and draws
// the initial weights and the validation split from rng: everything
// training does before its first epoch.
func newMLP(X [][]float64, y []int, cfg MLPConfig, rng *rand.Rand) (m *MLP, trainIdx, valIdx []int, err error) {
	cfg = cfg.withDefaults()
	if err := validateXY(X, y, cfg.Classes); err != nil {
		return nil, nil, nil, err
	}
	if rng == nil {
		return nil, nil, nil, fmt.Errorf("ml: nil rng (determinism requires an explicit source)")
	}
	std, err := FitStandardizer(X)
	if err != nil {
		return nil, nil, nil, err
	}
	dims := append([]int{len(X[0])}, cfg.Hidden...)
	dims = append(dims, cfg.Classes)
	m = &MLP{cfg: cfg, std: std}
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, newDenseLayer(dims[i], dims[i+1], cfg.LearningRate, rng))
	}
	trainIdx, valIdx = TrainTestSplit(len(X), cfg.ValFraction, rng)
	return m, trainIdx, valIdx, nil
}

func (m *MLP) snapshot() [][]float64 {
	var out [][]float64
	for _, l := range m.layers {
		w := make([]float64, len(l.w))
		copy(w, l.w)
		b := make([]float64, len(l.b))
		copy(b, l.b)
		out = append(out, w, b)
	}
	return out
}

func (m *MLP) restore(weights [][]float64) {
	for i, l := range m.layers {
		copy(l.w, weights[2*i])
		copy(l.b, weights[2*i+1])
		l.transpose()
	}
}

// PredictProba implements Classifier. Each call scores x on a one-lane
// MLPBatch of its own, so concurrent callers share only the read-only
// weights. Callers that score repeatedly should hold an MLPBatch.
func (m *MLP) PredictProba(x []float64) []float64 {
	out := make([]float64, m.cfg.Classes)
	m.NewBatch().PredictProbaBatchInto([][]float64{x}, out)
	return out
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) int { return argmax(m.PredictProba(x)) }

// Classes implements Classifier.
func (m *MLP) Classes() int { return m.cfg.Classes }
