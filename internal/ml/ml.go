// Package ml implements the machine-learning baselines the paper compares
// the context-aware monitor against (Section IV-C): a CART decision tree,
// a multi-layer perceptron (256-128 ReLU with softmax), and a two-layer
// stacked LSTM (128, 64 units over a 6-step window) — all trained with
// Adam, dropout, and early stopping, from scratch on float64 slices.
//
// Everything is deterministic given the caller-provided *rand.Rand: the
// trainers split each mini-batch across cores without changing a single
// bit of the result (see train.go).
//
//fleetvet:deterministic
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Classifier is a point-in-time classifier over feature vectors.
type Classifier interface {
	// PredictProba returns class probabilities for one feature vector.
	PredictProba(x []float64) []float64
	// Predict returns the argmax class.
	Predict(x []float64) int
	// Classes returns the number of classes.
	Classes() int
}

// argmax returns the index of the largest value.
func argmax(v []float64) int {
	best, idx := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return idx
}

// softmax writes the softmax of logits into out (stable form).
func softmax(logits, out []float64) {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// Adam is the Adam optimizer state for one flat parameter vector.
type Adam struct {
	lr    float64
	beta1 float64
	beta2 float64
	eps   float64
	m, v  []float64
	t     int
}

// NewAdam creates Adam state for n parameters. lr <= 0 selects the
// paper's 0.001.
func NewAdam(n int, lr float64) *Adam {
	if lr <= 0 {
		lr = 0.001
	}
	return &Adam{
		lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n),
	}
}

// Step applies one Adam update of params using grads (both length n).
func (a *Adam) Step(params, grads []float64) {
	a.t++
	b1c := 1 - math.Pow(a.beta1, float64(a.t))
	b2c := 1 - math.Pow(a.beta2, float64(a.t))
	for i := range params {
		g := grads[i]
		a.m[i] = a.beta1*a.m[i] + (1-a.beta1)*g
		a.v[i] = a.beta2*a.v[i] + (1-a.beta2)*g*g
		mh := a.m[i] / b1c
		vh := a.v[i] / b2c
		params[i] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
	}
}

// TrainTestSplit shuffles indices deterministically and splits them.
func TrainTestSplit(n int, testFraction float64, rng *rand.Rand) (train, test []int) {
	idx := rng.Perm(n)
	cut := int(float64(n) * (1 - testFraction))
	if cut < 1 {
		cut = 1
	}
	if cut > n {
		cut = n
	}
	return idx[:cut], idx[cut:]
}

// Standardizer scales features to zero mean, unit variance.
type Standardizer struct {
	Mean []float64
	Std  []float64
}

// FitStandardizer computes per-feature statistics. It rejects a NaN or
// infinite feature: one would turn every standardized value of its
// column, and so every prediction, into NaN.
func FitStandardizer(X [][]float64) (*Standardizer, error) {
	if len(X) == 0 || len(X[0]) == 0 {
		return nil, fmt.Errorf("ml: empty design matrix")
	}
	d := len(X[0])
	s := &Standardizer{Mean: make([]float64, d), Std: make([]float64, d)}
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("ml: ragged design matrix (%d vs %d)", len(row), d)
		}
		for j, v := range row {
			if err := checkFeature(v, i, j); err != nil {
				return nil, err
			}
			s.Mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-9 {
			s.Std[j] = 1
		}
	}
	return s, nil
}

// checkFeature rejects a NaN or infinite feature v at row i, column j.
func checkFeature(v float64, i, j int) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("ml: non-finite feature %v at row %d, column %d", v, i, j)
	}
	return nil
}

// Transform returns the standardized copy of x.
func (s *Standardizer) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes a whole matrix.
func (s *Standardizer) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}

// Accuracy computes fraction of correct argmax predictions.
func Accuracy(c Classifier, X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	var correct int
	for i, x := range X {
		if c.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

// crossEntropy returns -log p[label] with clamping.
func crossEntropy(p []float64, label int) float64 {
	v := p[label]
	if v < 1e-12 {
		v = 1e-12
	}
	return -math.Log(v)
}

// validateXY checks design-matrix/label consistency.
func validateXY(X [][]float64, y []int, classes int) error {
	if len(X) == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(X), len(y))
	}
	d := len(X[0])
	for i, row := range X {
		if len(row) != d {
			return fmt.Errorf("ml: ragged row %d (%d vs %d)", i, len(row), d)
		}
	}
	return validateLabels(y, classes)
}

// validateLabels checks that every label names one of the classes.
func validateLabels(y []int, classes int) error {
	for i, label := range y {
		if label < 0 || label >= classes {
			return fmt.Errorf("ml: label %d at row %d outside [0,%d)", label, i, classes)
		}
	}
	return nil
}
