package ml

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// The vector LSTM kernel must compute exactly what the Go kernel
// computes. These differentials run both on the same model and inputs
// and compare every output bit.

// expNoFMABits is Exp(expProbe) on exp_amd64.s's unfused path.
const expNoFMABits = 0x3fb6b8a6925d28b0

// TestLSTMVectorGate checks that the vector kernels are on exactly where
// the CPU has AVX2, GODEBUG leaves it on, and math.Exp runs its FMA
// path.
func TestLSTMVectorGate(t *testing.T) {
	probe := math.Float64bits(math.Exp(expProbe))
	masked := cpuOptionOff(os.Getenv("GODEBUG"), "avx2")
	if want := cpuAVX2() && !masked && probe == expFMABits; vector != want {
		t.Fatalf("vector = %v, want %v (AVX2 %v, masked by GODEBUG %v, Exp(%v) bits %#x)",
			vector, want, cpuAVX2(), masked, expProbe, probe)
	}
	if runtime.GOARCH == "amd64" && probe != expFMABits && probe != expNoFMABits {
		t.Errorf("Exp(%v) bits %#x are neither the fused (%#x) nor the unfused (%#x) path's",
			expProbe, probe, uint64(expFMABits), uint64(expNoFMABits))
	}
	t.Logf("%s: AVX2 %v, masked by GODEBUG %v, Exp(%v) bits %#x, vector kernel %v",
		runtime.GOARCH, cpuAVX2(), masked, expProbe, probe, vector)
}

// vectorWidths are every remainder of the four-lane tile, and the
// replay width of a 70-trace fold on two workers.
var vectorWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 35}

// TestLSTMVectorMatchesGoKernel runs the suite's 32-16 model and a
// pass-through layer over ordinary, saturating, out-of-range and
// non-finite frames at every width, through both kernels.
func TestLSTMVectorMatchesGoKernel(t *testing.T) {
	if !vector {
		t.Skipf("vector LSTM kernel off on %s (AVX2 %v, Exp(%v) bits %#x): the Go kernel is the only kernel",
			runtime.GOARCH, cpuAVX2(), expProbe, math.Float64bits(math.Exp(expProbe)))
	}
	rng := rand.New(rand.NewSource(26))
	suite := identityLSTM([]*lstmLayer{newLSTMLayer(6, 32, 0.001, rng), newLSTMLayer(32, 16, 0.001, rng)}, rng)
	gauss := func(scale float64) func() float64 {
		return func() float64 { return rng.NormFloat64() * scale }
	}
	// Frames that sometimes hold a non-finite or subnormal feature.
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -1e-310, 0, math.Copysign(0, -1)}
	spiked := func() float64 {
		if rng.Intn(40) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	for _, tc := range []struct {
		name  string
		frame func() float64
	}{
		{"unit", gauss(1)},
		// Pre-activations past tanh's ±44 saturation.
		{"x40", gauss(40)},
		// Pre-activations past sigmoid's exp range, ±708.
		{"x1e3", gauss(1e3)},
		{"special", spiked},
	} {
		for _, n := range vectorWidths {
			t.Run(fmt.Sprintf("suite/%s/%d", tc.name, n), func(t *testing.T) {
				compareKernels(t, suite, windowsOf(n, 6, 6, tc.frame))
			})
		}
	}

	// A layer whose every gate pre-activation is the frame's one
	// feature: bias -0, input weight 1, hidden weights -0. So the gates
	// see these values exactly (at the first timestep, ±0 too).
	pass := &lstmLayer{in: 1, units: 3, w: make([]float64, 4*3*(1+3+1))}
	for r := 0; r < 4*3; r++ {
		row := pass.w[r*5 : (r+1)*5]
		row[0] = 1
		for k := 1; k < 5; k++ {
			row[k] = math.Copysign(0, -1)
		}
	}
	sat := 0.5 * 8.8029691931113054295988e+01
	edges := []float64{0, 0.625, math.Nextafter(0.625, 0), math.Nextafter(0.625, 1),
		sat, math.Nextafter(sat, 0), math.Nextafter(sat, 100), 44, 45, 88.03,
		708, math.Nextafter(708, 0), 709, math.Nextafter(709, 0),
		5e-324, 1e-310, 2.2250738585072014e-308, 1e-20, 0.3, 1, 3, 20}
	for _, v := range append([]float64(nil), edges...) {
		edges = append(edges, -v)
	}
	beyond := []float64{math.Nextafter(708, 709), 708.7, 709.1, 709.4, 709.8, 710, 720, 1e300,
		math.MaxFloat64, math.Inf(1), math.NaN()}
	for _, v := range append([]float64(nil), beyond...) {
		beyond = append(beyond, -v)
	}
	edgeFrame := func() float64 {
		if rng.Intn(8) == 0 {
			return beyond[rng.Intn(len(beyond))]
		}
		return edges[rng.Intn(len(edges))]
	}
	// And sweeps across sigmoid's whole exp range and tanh's branches.
	wide := func() float64 { return (rng.Float64()*2 - 1) * 720 }
	logMag := func() float64 {
		return math.Copysign(math.Pow(10, rng.Float64()*312-310), rng.Float64()-0.5)
	}
	passModel := identityLSTM([]*lstmLayer{pass}, rng)
	for _, tc := range []struct {
		name  string
		frame func() float64
	}{{"edges", edgeFrame}, {"wide", wide}, {"logmag", logMag}} {
		for _, n := range vectorWidths {
			t.Run(fmt.Sprintf("pass/%s/%d", tc.name, n), func(t *testing.T) {
				compareKernels(t, passModel, windowsOf(n, 6, 1, tc.frame))
			})
		}
	}
}

// identityLSTM wraps layers in a model with a random two-class head and
// an identity standardizer, so frames reach the first layer unchanged.
func identityLSTM(layers []*lstmLayer, rng *rand.Rand) *LSTM {
	in := layers[0].in
	std := &Standardizer{Mean: make([]float64, in), Std: make([]float64, in)}
	for j := range std.Std {
		std.Std[j] = 1
	}
	last := layers[len(layers)-1].units
	cfg := LSTMConfig{Units: []int{last}, Window: 6}.withDefaults()
	return &LSTM{cfg: cfg, layers: layers, head: newDenseLayer(last, cfg.Classes, cfg.LearningRate, rng), std: std}
}

// windowsOf draws n windows of t frames of d features from frame.
func windowsOf(n, t, d int, frame func() float64) [][][]float64 {
	out := make([][][]float64, n)
	for s := range out {
		out[s] = make([][]float64, t)
		for tt := range out[s] {
			f := make([]float64, d)
			for j := range f {
				f[j] = frame()
			}
			out[s][tt] = f
		}
	}
	return out
}

// compareKernels runs windows through m on both kernels: every layer
// with the training cache, then the logits and class probabilities.
func compareKernels(t *testing.T, m *LSTM, windows [][][]float64) {
	t.Helper()
	n, steps := len(windows), m.cfg.Window
	vb, gb := m.NewBatch(), m.NewBatch()
	vb.ensure(n)
	gb.ensure(n)
	cur := standardized(m, windows)
	for li, l := range m.layers {
		vOut, gOut := make([]float64, n*steps*l.units), make([]float64, n*steps*l.units)
		vCache := make([]float64, len(vOut)*lstmCacheWidth)
		gCache := make([]float64, len(vCache))
		vb.forwardLayerVector(l, cur, vOut, n, steps, vCache)
		gb.forwardLayerGo(l, cur, gOut, n, steps, gCache)
		sameKernelBits(t, fmt.Sprintf("layer %d hidden state", li), vOut, gOut)
		sameKernelBits(t, fmt.Sprintf("layer %d cache", li), vCache, gCache)
		// Inference (no cache) writes the same hidden states.
		noCache := make([]float64, len(vOut))
		vb.forwardLayerVector(l, cur, noCache, n, steps, nil)
		sameKernelBits(t, fmt.Sprintf("layer %d uncached hidden state", li), noCache, gOut)
		cur = gOut
	}
	c := m.cfg.Classes
	vLogits := append([]float64(nil), vb.forward(windows)...)
	gLogits := make([]float64, n*c)
	last := m.layers[len(m.layers)-1].units
	for s := 0; s < n; s++ {
		m.head.forward(cur[(s*steps+steps-1)*last:][:last], gLogits[s*c:(s+1)*c])
	}
	sameKernelBits(t, "logits", vLogits, gLogits)
	vProba, gProba := make([]float64, n*c), make([]float64, n*c)
	vb.PredictProbaSeqBatchInto(windows, vProba)
	for s := 0; s < n; s++ {
		softmax(gLogits[s*c:(s+1)*c], gProba[s*c:(s+1)*c])
	}
	sameKernelBits(t, "probabilities", vProba, gProba)
}

// standardized lays windows out row-major and standardized, as
// LSTMBatch.forward feeds the first layer.
func standardized(m *LSTM, windows [][][]float64) []float64 {
	t, in := m.cfg.Window, m.layers[0].in
	out := make([]float64, len(windows)*t*in)
	for s, w := range windows {
		for tt, frame := range w {
			for j, v := range frame {
				out[(s*t+tt)*in+j] = (v - m.std.Mean[j]) / m.std.Std[j]
			}
		}
	}
	return out
}

// sameKernelBits fails unless got and want agree bit for bit, where
// any NaN matches any NaN.
func sameKernelBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s[%d]: vector %v (%#x), Go %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// BenchmarkLSTMForward times both recurrent layers of the suite's 32-16
// LSTM (window 6, six features) on the Go kernel and the vector kernel:
// at width 1, where LSTM.PredictProba and the one-lane monitor views
// run, at one full tile, and at the 35 lanes of a replay worker. It
// reports ns per window.
func BenchmarkLSTMForward(b *testing.B) {
	const steps = 6
	X, y := windows(35, steps, 6, 2, rand.New(rand.NewSource(1)))
	m, _, _, err := newLSTM(X, y, LSTMConfig{Units: []int{32, 16}, Window: steps}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name string
		run  func(b *LSTMBatch, l *lstmLayer, cur, nxt []float64, n, t int, cache []float64)
	}{{"go", (*LSTMBatch).forwardLayerGo}, {"vector", (*LSTMBatch).forwardLayerVector}} {
		for _, n := range []int{1, 4, 35} {
			b.Run(fmt.Sprintf("%s/width=%d", k.name, n), func(b *testing.B) {
				if k.name == "vector" && !vector {
					b.Skip("vector LSTM kernel off on this host")
				}
				batch := m.NewBatch()
				batch.ensure(n)
				seqs := [][]float64{standardized(m, X[:n])}
				for _, l := range m.layers {
					seqs = append(seqs, make([]float64, n*steps*l.units))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for li, l := range m.layers {
						k.run(batch, l, seqs[li], seqs[li+1], n, steps, nil)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/window")
			})
		}
	}
}
