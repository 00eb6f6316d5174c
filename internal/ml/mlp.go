package ml

import (
	"fmt"
	"math"
	"math/rand"
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
	b       []float64
	gw      []float64
	gb      []float64
	adamW   *Adam
	adamB   *Adam
}

func newDenseLayer(in, out int, lr float64, rng *rand.Rand) *denseLayer {
	l := &denseLayer{
		in: in, out: out,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
	}
	// He initialization for ReLU networks.
	scale := math.Sqrt(2 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
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

// backward accumulates gradients given upstream delta and input x, and
// writes the downstream delta into dx (may be nil for the first layer).
func (l *denseLayer) backward(x, delta, dx []float64) {
	for o := 0; o < l.out; o++ {
		d := delta[o]
		l.gb[o] += d
		row := l.gw[o*l.in : (o+1)*l.in]
		for i, xi := range x {
			row[i] += d * xi
		}
	}
	if dx != nil {
		for i := 0; i < l.in; i++ {
			var sum float64
			for o := 0; o < l.out; o++ {
				sum += l.w[o*l.in+i] * delta[o]
			}
			dx[i] = sum
		}
	}
}

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
	for i := range l.gw {
		l.gw[i] = 0
	}
	for i := range l.gb {
		l.gb[i] = 0
	}
}

// MLP is the multi-layer perceptron baseline monitor model. Inference
// keeps its scratch per call, so one trained model may serve many
// goroutines concurrently (every fleet session's MLMonitor shares it).
type MLP struct {
	cfg    MLPConfig
	layers []*denseLayer
	std    *Standardizer
}

var _ Classifier = (*MLP)(nil)

// FitMLP trains the network. Inputs are standardized internally.
func FitMLP(X [][]float64, y []int, cfg MLPConfig, rng *rand.Rand) (*MLP, error) {
	cfg = cfg.withDefaults()
	if err := validateXY(X, y, cfg.Classes); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("ml: nil rng (determinism requires an explicit source)")
	}
	std, err := FitStandardizer(X)
	if err != nil {
		return nil, err
	}
	Xs := std.TransformAll(X)

	dims := append([]int{len(X[0])}, cfg.Hidden...)
	dims = append(dims, cfg.Classes)
	m := &MLP{cfg: cfg, std: std}
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, newDenseLayer(dims[i], dims[i+1], cfg.LearningRate, rng))
	}
	trainIdx, valIdx := TrainTestSplit(len(Xs), cfg.ValFraction, rng)

	// Per-sample training buffers.
	nL := len(m.layers)
	acts := make([][]float64, nL+1)   // pre-dropout activations (post-ReLU)
	deltas := make([][]float64, nL+1) // gradients wrt activations
	masks := make([][]float64, nL+1)  // dropout masks for hidden layers
	for i := 0; i <= nL; i++ {
		acts[i] = make([]float64, dims[i])
		deltas[i] = make([]float64, dims[i])
		masks[i] = make([]float64, dims[i])
	}
	probs := make([]float64, cfg.Classes)
	inferBuf := make([]float64, m.inferLen())

	bestValLoss := math.Inf(1)
	bestWeights := m.snapshot()
	badEpochs := 0

	order := make([]int, len(trainIdx))
	copy(order, trainIdx)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			for _, idx := range order[start:end] {
				m.forwardTrain(Xs[idx], acts, masks, rng)
				softmax(acts[nL], probs)
				// delta at logits = p - onehot(y)
				for c := 0; c < cfg.Classes; c++ {
					deltas[nL][c] = probs[c]
					if c == y[idx] {
						deltas[nL][c]--
					}
				}
				// Backprop.
				for li := nL - 1; li >= 0; li-- {
					var dx []float64
					if li > 0 {
						dx = deltas[li]
					}
					m.layers[li].backward(acts[li], deltas[li+1], dx)
					if li > 0 {
						// ReLU derivative and dropout mask.
						for i := range dx {
							if acts[li][i] <= 0 {
								dx[i] = 0
							}
							dx[i] *= masks[li][i]
						}
					}
				}
			}
			batch := float64(end - start)
			for _, l := range m.layers {
				l.step(batch)
			}
		}
		// Early stopping on held-out loss.
		valLoss := m.meanLoss(Xs, y, valIdx, probs, inferBuf)
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

// forwardTrain runs a pass with ReLU + inverted dropout, storing
// post-activation values in acts and masks.
func (m *MLP) forwardTrain(x []float64, acts, masks [][]float64, rng *rand.Rand) {
	copy(acts[0], x)
	nL := len(m.layers)
	for li, l := range m.layers {
		l.forward(acts[li], acts[li+1])
		if li != nL-1 { // hidden layers get ReLU + inverted dropout

			keep := 1 - m.cfg.Dropout
			for i := range acts[li+1] {
				if acts[li+1][i] < 0 {
					acts[li+1][i] = 0
				}
				if rng.Float64() < m.cfg.Dropout {
					masks[li+1][i] = 0
					acts[li+1][i] = 0
				} else {
					masks[li+1][i] = 1 / keep
					acts[li+1][i] *= 1 / keep
				}
			}
		}
	}
}

func (m *MLP) meanLoss(X [][]float64, y []int, idx []int, probs, buf []float64) float64 {
	if len(idx) == 0 {
		return 0
	}
	var sum float64
	for _, i := range idx {
		softmax(m.forwardInfer(X[i], buf), probs)
		sum += crossEntropy(probs, y[i])
	}
	return sum / float64(len(idx))
}

// inferLen is the scratch length forwardInfer needs: every layer's
// output activations, back to back.
func (m *MLP) inferLen() int {
	n := 0
	for _, l := range m.layers {
		n += l.out
	}
	return n
}

// forwardInfer runs a deterministic pass (no dropout) on standardized x
// and returns the logits. buf (at least inferLen long) holds the
// activations, so concurrent callers with their own buffers never share
// state.
func (m *MLP) forwardInfer(x, buf []float64) []float64 {
	nL := len(m.layers)
	for li, l := range m.layers {
		out := buf[:l.out]
		buf = buf[l.out:]
		l.forward(x, out)
		if li != nL-1 {
			for i := range out {
				if out[i] < 0 {
					out[i] = 0
				}
			}
		}
		x = out
	}
	return x
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
	}
}

// PredictProba implements Classifier.
func (m *MLP) PredictProba(x []float64) []float64 {
	// Per-call scratch: on the stack when the activations fit (the
	// default binary [64, 32] net needs 98), so inference allocates
	// nothing beyond its input and output; larger nets take a heap
	// buffer.
	var stack [256]float64
	buf := stack[:]
	if n := m.inferLen(); n > len(stack) {
		buf = make([]float64, n)
	}
	logits := m.forwardInfer(m.std.Transform(x), buf)
	out := make([]float64, m.cfg.Classes)
	softmax(logits, out)
	return out
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) int { return argmax(m.PredictProba(x)) }

// Classes implements Classifier.
func (m *MLP) Classes() int { return m.cfg.Classes }
