package ml

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSoftmax(t *testing.T) {
	out := make([]float64, 3)
	softmax([]float64{1, 2, 3}, out)
	var sum float64
	for _, v := range out {
		if v <= 0 || v >= 1 {
			t.Errorf("softmax value %v out of (0,1)", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Errorf("softmax ordering broken: %v", out)
	}
	// Stability with huge logits.
	softmax([]float64{1000, 1001}, out[:2])
	if math.IsNaN(out[0]) || math.IsNaN(out[1]) {
		t.Error("softmax overflow")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	params := []float64{5, -3}
	grads := make([]float64, 2)
	opt := NewAdam(2, 0.05)
	for i := 0; i < 2000; i++ {
		grads[0] = 2 * (params[0] - 1)
		grads[1] = 2 * (params[1] + 2)
		opt.Step(params, grads)
	}
	if math.Abs(params[0]-1) > 0.01 || math.Abs(params[1]+2) > 0.01 {
		t.Errorf("Adam converged to %v, want (1,-2)", params)
	}
}

func TestTrainTestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train, test := TrainTestSplit(100, 0.2, rng)
	if len(train) != 80 || len(test) != 20 {
		t.Errorf("split %d/%d", len(train), len(test))
	}
	seen := make(map[int]bool)
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatalf("index %d duplicated", i)
		}
		seen[i] = true
	}
	// Tiny n keeps at least one training sample.
	train, _ = TrainTestSplit(1, 0.9, rng)
	if len(train) != 1 {
		t.Error("tiny split lost all training data")
	}
}

func TestStandardizer(t *testing.T) {
	X := [][]float64{{1, 100}, {2, 200}, {3, 300}}
	s, err := FitStandardizer(X)
	if err != nil {
		t.Fatal(err)
	}
	Xs := s.TransformAll(X)
	for j := 0; j < 2; j++ {
		var mean float64
		for i := range Xs {
			mean += Xs[i][j]
		}
		mean /= 3
		if math.Abs(mean) > 1e-12 {
			t.Errorf("feature %d mean %v", j, mean)
		}
	}
	if _, err := FitStandardizer(nil); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := FitStandardizer([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix should fail")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := FitStandardizer([][]float64{{1, 2}, {v, 3}})
		if err == nil || !strings.Contains(err.Error(), "row 1, column 0") {
			t.Errorf("feature %v: err %v, want one naming row 1, column 0", v, err)
		}
	}
	// Constant features keep Std=1 (no division blowup).
	s2, err := FitStandardizer([][]float64{{5}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Std[0] != 1 {
		t.Errorf("constant feature std %v, want 1", s2.Std[0])
	}
}

// xorData is linearly inseparable: trees and MLPs must both handle it.
func xorData(n int, rng *rand.Rand) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a := rng.Float64()
		b := rng.Float64()
		X[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return X, y
}

func TestTreeLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := xorData(600, rng)
	tree, err := FitTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tree, X, y); acc < 0.9 {
		t.Errorf("tree XOR accuracy %v, want > 0.9", acc)
	}
	if tree.Depth() < 1 || tree.NodeCount() < 3 {
		t.Errorf("degenerate tree: %s", tree)
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := FitTree(nil, nil, TreeConfig{}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := FitTree([][]float64{{1}}, []int{5}, TreeConfig{Classes: 2}); err == nil {
		t.Error("out-of-range label should fail")
	}
	if _, err := FitTree([][]float64{{1}, {2}}, []int{0}, TreeConfig{}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestTreePureLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{0, 0, 0, 0}
	tree, err := FitTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := tree.PredictProba([]float64{2.5})
	if p[0] != 1 {
		t.Errorf("pure class proba %v", p)
	}
}

func TestTreeProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := xorData(400, rng)
	tree, err := FitTree(X, y, TreeConfig{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := tree.PredictProba(X[0])
	if len(p) != 2 || math.Abs(p[0]+p[1]-1) > 1e-12 {
		t.Errorf("proba %v", p)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := xorData(800, rng)
	m, err := FitMLP(X, y, MLPConfig{
		Hidden: []int{32, 16}, Epochs: 60, BatchSize: 32, Dropout: 0.1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, X, y); acc < 0.85 {
		t.Errorf("MLP XOR accuracy %v, want > 0.85", acc)
	}
}

func TestMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := FitMLP(nil, nil, MLPConfig{}, rng); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := FitMLP([][]float64{{1}}, []int{0}, MLPConfig{}, nil); err == nil {
		t.Error("nil rng should fail")
	}
	for _, v := range []float64{math.NaN(), math.Inf(-1)} {
		X := [][]float64{{1, 2}, {3, 4}, {5, v}}
		_, err := FitMLP(X, []int{0, 1, 0}, MLPConfig{}, rng)
		if err == nil || !strings.Contains(err.Error(), "row 2, column 1") {
			t.Errorf("feature %v at row 2, column 1: err %v, want one naming it", v, err)
		}
	}
}

func TestMLPDeterministic(t *testing.T) {
	X, y := xorData(200, rand.New(rand.NewSource(5)))
	train := func() []float64 {
		rng := rand.New(rand.NewSource(42))
		m, err := FitMLP(X, y, MLPConfig{Hidden: []int{8}, Epochs: 5}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m.PredictProba([]float64{0.3, 0.7})
	}
	a, b := train(), train()
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("MLP training not deterministic: %v vs %v", a, b)
	}
}

// seqData: label 1 when the first feature is increasing over the window.
func seqData(n, window int, rng *rand.Rand) ([][][]float64, []int) {
	X := make([][][]float64, n)
	y := make([]int, n)
	for i := range X {
		up := rng.Intn(2) == 1
		y[i] = 0
		if up {
			y[i] = 1
		}
		win := make([][]float64, window)
		base := rng.Float64() * 10
		for tstep := range win {
			v := base - float64(tstep)*0.5
			if up {
				v = base + float64(tstep)*0.5
			}
			v += rng.NormFloat64() * 0.05
			win[tstep] = []float64{v, rng.Float64()}
		}
		X[i] = win
	}
	return X, y
}

func TestLSTMLearnsTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	X, y := seqData(400, 6, rng)
	m, err := FitLSTM(X, y, LSTMConfig{
		Units: []int{16, 8}, Epochs: 15, BatchSize: 16,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var correct int
	for i, w := range X {
		if m.Predict(w) == y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(X))
	if acc < 0.85 {
		t.Errorf("LSTM trend accuracy %v, want > 0.85", acc)
	}
	if m.Window() != 6 || m.Classes() != 2 {
		t.Errorf("Window=%d Classes=%d", m.Window(), m.Classes())
	}
}

func TestLSTMValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := FitLSTM(nil, nil, LSTMConfig{}, rng); err == nil {
		t.Error("empty data should fail")
	}
	X, y := seqData(4, 6, rng)
	if _, err := FitLSTM(X, y[:3], LSTMConfig{}, rng); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FitLSTM(X, y, LSTMConfig{Window: 9}, rng); err == nil {
		t.Error("window mismatch should fail")
	}
	if _, err := FitLSTM(X, y, LSTMConfig{}, nil); err == nil {
		t.Error("nil rng should fail")
	}
	for _, label := range []int{2, -1} {
		bad := append([]int(nil), y...)
		bad[3] = label
		if _, err := FitLSTM(X, bad, LSTMConfig{}, rng); err == nil {
			t.Errorf("label %d on a binary model should fail", label)
		}
	}
	if _, err := FitLSTM(X, []int{0, 1, 2, 1}, LSTMConfig{Classes: 3}, rng); err != nil {
		t.Errorf("labels inside [0, Classes) rejected: %v", err)
	}
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		bad := make([][][]float64, len(X))
		for i, w := range X {
			bad[i] = make([][]float64, len(w))
			for tt, frame := range w {
				bad[i][tt] = append([]float64(nil), frame...)
			}
		}
		bad[2][5][1] = v
		_, err := FitLSTM(bad, y, LSTMConfig{}, rng)
		if err == nil || !strings.Contains(err.Error(), "row 17, column 1") {
			t.Errorf("frame value %v at window 2, step 5: err %v, want one naming row 17, column 1", v, err)
		}
	}
}

func TestMulticlass(t *testing.T) {
	// Three linearly separable blobs.
	rng := rand.New(rand.NewSource(21))
	var X [][]float64
	var y []int
	centers := [][]float64{{0, 0}, {5, 5}, {0, 5}}
	for c, ctr := range centers {
		for i := 0; i < 100; i++ {
			X = append(X, []float64{ctr[0] + rng.NormFloat64()*0.5, ctr[1] + rng.NormFloat64()*0.5})
			y = append(y, c)
		}
	}
	tree, err := FitTree(X, y, TreeConfig{Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tree, X, y); acc < 0.95 {
		t.Errorf("3-class tree accuracy %v", acc)
	}
	m, err := FitMLP(X, y, MLPConfig{Hidden: []int{16}, Classes: 3, Epochs: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, X, y); acc < 0.9 {
		t.Errorf("3-class MLP accuracy %v", acc)
	}
}
