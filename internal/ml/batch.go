package ml

import "math"

// Batched inference. The fleet engine evaluates one monitor over many
// concurrent sessions per control cycle; scoring those observations in a
// single call amortizes the model's weight traffic across the batch.
// The MLP's layers are each one gemm over all the batch's samples, and
// the LSTM kernels tile four samples so each weight is loaded once per
// tile; scratch buffers are reused so the hot path allocates nothing.
//
// Batch predictions are bit-identical to their per-sample counterparts:
// the inner accumulation order is the same, so fleet traces are
// identical whether a shard runs per-session or batched inference.

// BatchClassifier scores many feature vectors in one call.
type BatchClassifier interface {
	// PredictBatchInto writes the argmax class of X[k] into out[k].
	// out must have at least len(X) elements.
	PredictBatchInto(X [][]float64, out []int)
	// PredictProbaBatchInto writes class probabilities row-major into
	// proba (at least len(X)*Classes() elements): proba[k*C+c] is X[k]'s
	// probability of class c, bit-identical to PredictProba per row.
	PredictProbaBatchInto(X [][]float64, proba []float64)
	// Classes returns the number of classes.
	Classes() int
}

// BatchSequenceClassifier scores many windows in one call.
type BatchSequenceClassifier interface {
	// PredictSeqBatchInto writes the argmax class of windows[k]
	// (timesteps x features) into out[k].
	PredictSeqBatchInto(windows [][][]float64, out []int)
	// PredictProbaSeqBatchInto writes class probabilities row-major into
	// proba (at least len(windows)*Classes() elements), bit-identical to
	// PredictProba per window.
	PredictProbaSeqBatchInto(windows [][][]float64, proba []float64)
	Classes() int
	// Window returns the number of timesteps every window must have.
	Window() int
}

// forwardBatchDense computes out = act(W·x + b) for n samples stored
// row-major in `in` (n x l.in), writing row-major into `out` (n x l.out).
// It is one gemm over the transposed weights l.wt: each output starts at
// its bias and adds w·x terms with inputs ascending, the order of
// denseLayer.forward, so results are bit-identical to the per-sample
// path. The Go kernel keeps four outputs of a sample in registers and
// the AVX2 kernel four per YMM register, so even a single sample, as in
// MLP.PredictProba and a one-lane monitor, fills the vector lanes.
//
//fleetvet:noalloc
func forwardBatchDense(l *denseLayer, in, out []float64, n int, relu bool) {
	gemm(out, l.out, in, l.in, l.wt, l.out, n, l.out, l.in, l.b, relu)
}

// PredictBatchInto implements BatchClassifier. The tree walk is cheap, so
// batching only removes the per-call probability copy of Predict.
func (t *Tree) PredictBatchInto(X [][]float64, out []int) {
	for k, x := range X {
		out[k] = argmax(t.leaf(x))
	}
}

// PredictProbaBatchInto implements BatchClassifier.
func (t *Tree) PredictProbaBatchInto(X [][]float64, proba []float64) {
	c := t.cfg.Classes
	for k, x := range X {
		copy(proba[k*c:(k+1)*c], t.leaf(x))
	}
}

// leaf descends to the leaf distribution for one feature vector.
func (t *Tree) leaf(x []float64) []float64 {
	n := t.root
	for n.proba == nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.proba
}

var _ BatchClassifier = (*Tree)(nil)

// MLPBatch is a reusable batched-inference context for one MLP. It holds
// scratch activations, so it is not safe for concurrent use — create one
// per worker; the underlying MLP weights are shared and only read.
type MLPBatch struct {
	m    *MLP
	acts [][]float64 // acts[li] is n x dims[li], row-major
	cap  int
}

// NewBatch creates a batched-inference context sharing this model's
// weights.
func (m *MLP) NewBatch() *MLPBatch { return &MLPBatch{m: m} }

var _ BatchClassifier = (*MLPBatch)(nil)

// Classes implements BatchClassifier.
func (b *MLPBatch) Classes() int { return b.m.cfg.Classes }

func (b *MLPBatch) ensure(n int) {
	if n <= b.cap {
		return
	}
	layers := b.m.layers
	b.acts = make([][]float64, len(layers)+1)
	b.acts[0] = make([]float64, n*layers[0].in)
	for li, l := range layers {
		b.acts[li+1] = make([]float64, n*l.out)
	}
	b.cap = n
}

// PredictBatchInto implements BatchClassifier. Results are bit-identical
// to calling m.Predict on each row.
//
//fleetvet:noalloc
func (b *MLPBatch) PredictBatchInto(X [][]float64, out []int) {
	n := len(X)
	if n == 0 {
		return
	}
	logits := b.forward(X)
	// argmax over logits equals argmax over softmax probabilities.
	c := b.m.cfg.Classes
	for s := 0; s < n; s++ {
		out[s] = argmax(logits[s*c : (s+1)*c])
	}
}

// PredictProbaBatchInto implements BatchClassifier.
//
//fleetvet:noalloc
func (b *MLPBatch) PredictProbaBatchInto(X [][]float64, proba []float64) {
	n := len(X)
	if n == 0 {
		return
	}
	logits := b.forward(X)
	c := b.m.cfg.Classes
	for s := 0; s < n; s++ {
		softmax(logits[s*c:(s+1)*c], proba[s*c:(s+1)*c])
	}
}

// forward runs the batched layers and returns the row-major logits
// (n x Classes) in the reused scratch.
//
//fleetvet:noalloc
func (b *MLPBatch) forward(X [][]float64) []float64 {
	n := len(X)
	b.ensure(n)
	std := b.m.std
	d0 := b.m.layers[0].in
	a0 := b.acts[0]
	for s, x := range X {
		row := a0[s*d0 : (s+1)*d0]
		for j, v := range x {
			row[j] = (v - std.Mean[j]) / std.Std[j]
		}
	}
	nL := len(b.m.layers)
	for li, l := range b.m.layers {
		forwardBatchDense(l, b.acts[li], b.acts[li+1], n, li != nL-1)
	}
	return b.acts[nL]
}

// LSTMBatch is a reusable batched-inference context for one LSTM. Like
// MLPBatch it owns scratch state: one per worker, weights shared.
type LSTMBatch struct {
	m *LSTM
	// Flat scratch, all row-major per sample.
	seqA, seqB []float64 // layer input/output sequences, n x T x dim
	h, c       []float64 // running hidden/cell state, n x units
	z          []float64 // gate pre-activations, n x units x 4
	logits     []float64 // n x classes
	cap        int
	// The vector kernel's four-lane tile: one timestep's inputs (in x 4),
	// the hidden state (units x 4), and per unit lstmCacheWidth vectors
	// (gate pre-activations, then activations i, f, g, o, the cell state
	// and its tanh).
	xT, hT, rec []float64
}

// NewBatch creates a batched-inference context sharing this model's
// weights.
func (m *LSTM) NewBatch() *LSTMBatch { return &LSTMBatch{m: m} }

var _ BatchSequenceClassifier = (*LSTMBatch)(nil)

// Classes implements BatchSequenceClassifier.
func (b *LSTMBatch) Classes() int { return b.m.cfg.Classes }

// Window implements BatchSequenceClassifier: the model's trained window.
func (b *LSTMBatch) Window() int { return b.m.cfg.Window }

func (b *LSTMBatch) ensure(n int) {
	if n <= b.cap {
		return
	}
	t := b.m.cfg.Window
	maxDim, maxUnits := b.m.layers[0].in, 0
	for _, l := range b.m.layers {
		maxDim = max(maxDim, l.units)
		maxUnits = max(maxUnits, l.units)
	}
	b.seqA = make([]float64, n*t*maxDim)
	b.seqB = make([]float64, n*t*maxDim)
	b.h = make([]float64, n*maxUnits)
	b.c = make([]float64, n*maxUnits)
	b.z = make([]float64, n*maxUnits*4)
	b.logits = make([]float64, n*b.m.cfg.Classes)
	if vector {
		maxIn := 0
		for _, l := range b.m.layers {
			maxIn = max(maxIn, l.in)
		}
		b.xT = make([]float64, maxIn*4)
		b.hT = make([]float64, maxUnits*4)
		b.rec = make([]float64, maxUnits*lstmCacheWidth*4)
	}
	b.cap = n
}

// PredictSeqBatchInto implements BatchSequenceClassifier. Results are
// bit-identical to calling m.Predict on each window.
//
//fleetvet:noalloc
func (b *LSTMBatch) PredictSeqBatchInto(windows [][][]float64, out []int) {
	n := len(windows)
	if n == 0 {
		return
	}
	logits := b.forward(windows)
	classes := b.m.cfg.Classes
	for s := 0; s < n; s++ {
		out[s] = argmax(logits[s*classes : (s+1)*classes])
	}
}

// PredictProbaSeqBatchInto implements BatchSequenceClassifier.
//
//fleetvet:noalloc
func (b *LSTMBatch) PredictProbaSeqBatchInto(windows [][][]float64, proba []float64) {
	n := len(windows)
	if n == 0 {
		return
	}
	logits := b.forward(windows)
	classes := b.m.cfg.Classes
	for s := 0; s < n; s++ {
		softmax(logits[s*classes:(s+1)*classes], proba[s*classes:(s+1)*classes])
	}
}

// forward runs the batched recurrent layers and head, returning the
// row-major logits (n x Classes) in the reused scratch.
//
//fleetvet:noalloc
func (b *LSTMBatch) forward(windows [][][]float64) []float64 {
	n := len(windows)
	b.ensure(n)
	m := b.m
	t := m.cfg.Window
	std := m.std
	in0 := m.layers[0].in
	cur, nxt := b.seqA, b.seqB
	for s, w := range windows {
		for tt, frame := range w {
			row := cur[(s*t+tt)*in0 : (s*t+tt+1)*in0]
			for j, v := range frame {
				row[j] = (v - std.Mean[j]) / std.Std[j]
			}
		}
	}
	lastUnits := 0
	for _, l := range m.layers {
		b.forwardLayer(l, cur, nxt, n, t, nil)
		cur, nxt = nxt, cur
		lastUnits = l.units
	}
	// The head reads the final timestep's hidden state of the last layer.
	classes := m.cfg.Classes
	for s := 0; s < n; s++ {
		hLast := cur[(s*t+t-1)*lastUnits : (s*t+t)*lastUnits]
		m.head.forward(hLast, b.logits[s*classes:(s+1)*classes])
	}
	return b.logits
}

// forwardLayer runs one LSTM layer over n sequences of t steps, reading
// row-major input frames from cur (n x t x l.in) and writing hidden
// states into nxt (n x t x l.units).
//
// Training passes a non-nil cache (n x t x l.units x lstmCacheWidth),
// which receives every timestep's gate activations i, f, g, o, the cell
// state c and tanh(c): all that backpropagation through time reads
// besides the hidden states in nxt.
//
// Where vector holds it runs the AVX2 kernel (lstm_amd64.go), which
// computes the same bits as forwardLayerGo four samples per instruction;
// everywhere else forwardLayerGo, which is also the vector kernel's test
// oracle.
//
//fleetvet:noalloc
func (b *LSTMBatch) forwardLayer(l *lstmLayer, cur, nxt []float64, n, t int, cache []float64) {
	if vector {
		b.forwardLayerVector(l, cur, nxt, n, t, cache)
		return
	}
	b.forwardLayerGo(l, cur, nxt, n, t, cache)
}

// forwardLayerGo is forwardLayer in Go. Gate weight rows are loaded once
// per timestep and reused across the whole batch, and the pre-activation
// dot products are register-tiled over four samples: four independent
// accumulators share each weight read. Every accumulator adds the bias, then the input terms, then the
// hidden terms, in the per-sample order (bias, inputs, hidden state), so
// results are bit-identical to a scalar pass.
//
//fleetvet:noalloc
func (b *LSTMBatch) forwardLayerGo(l *lstmLayer, cur, nxt []float64, n, t int, cache []float64) {
	u, in := l.units, l.in
	h := b.h[:n*u]
	c := b.c[:n*u]
	z := b.z[:n*u*4]
	for i := range h {
		h[i] = 0
		c[i] = 0
	}
	for tt := 0; tt < t; tt++ {
		// Pre-activations gate-major so each weight row is read once
		// per tile.
		for gate := 0; gate < 4; gate++ {
			for uu := 0; uu < u; uu++ {
				row := l.gateRow(l.w, gate, uu)
				wx, wh, bias := row[:in], row[in:in+u], row[in+u]
				s := 0
				for ; s+4 <= n; s += 4 {
					x0 := cur[(s*t+tt)*in:][:len(wx)]
					x1 := cur[((s+1)*t+tt)*in:][:len(wx)]
					x2 := cur[((s+2)*t+tt)*in:][:len(wx)]
					x3 := cur[((s+3)*t+tt)*in:][:len(wx)]
					h0 := h[s*u:][:len(wh)]
					h1 := h[(s+1)*u:][:len(wh)]
					h2 := h[(s+2)*u:][:len(wh)]
					h3 := h[(s+3)*u:][:len(wh)]
					a0, a1, a2, a3 := bias, bias, bias, bias
					for j, w := range wx {
						a0 += w * x0[j]
						a1 += w * x1[j]
						a2 += w * x2[j]
						a3 += w * x3[j]
					}
					for j, w := range wh {
						a0 += w * h0[j]
						a1 += w * h1[j]
						a2 += w * h2[j]
						a3 += w * h3[j]
					}
					z[(s*u+uu)*4+gate] = a0
					z[((s+1)*u+uu)*4+gate] = a1
					z[((s+2)*u+uu)*4+gate] = a2
					z[((s+3)*u+uu)*4+gate] = a3
				}
				for ; s < n; s++ {
					x := cur[(s*t+tt)*in:][:len(wx)]
					hPrev := h[s*u:][:len(wh)]
					sum := bias
					for j, w := range wx {
						sum += w * x[j]
					}
					for j, w := range wh {
						sum += w * hPrev[j]
					}
					z[(s*u+uu)*4+gate] = sum
				}
			}
		}
		for s := 0; s < n; s++ {
			for uu := 0; uu < u; uu++ {
				zs := z[(s*u+uu)*4 : (s*u+uu)*4+4]
				iGate, fGate, gGate, oGate, cv, tc, hv := lstmCell(zs[0], zs[1], zs[2], zs[3], c[s*u+uu])
				c[s*u+uu] = cv
				h[s*u+uu] = hv
				nxt[(s*t+tt)*u+uu] = hv
				if cache != nil {
					st := cache[((s*t+tt)*u+uu)*lstmCacheWidth:][:lstmCacheWidth]
					st[0], st[1], st[2], st[3], st[4], st[5] = iGate, fGate, gGate, oGate, cv, tc
				}
			}
		}
	}
}

// lstmCell is one unit's cell update from its gate pre-activations and
// previous cell state: the gate activations, the new cell state c, tanh(c)
// and the hidden state.
func lstmCell(zi, zf, zg, zo, cPrev float64) (i, f, g, o, c, tc, h float64) {
	i, f, g, o = sigmoid(zi), sigmoid(zf), math.Tanh(zg), sigmoid(zo)
	c = f*cPrev + i*g
	tc = math.Tanh(c)
	return i, f, g, o, c, tc, o * tc
}
