package ml

import "math"

// Batched inference. The fleet engine evaluates one monitor over many
// concurrent sessions per control cycle; scoring those observations in a
// single call amortizes the model's weight traffic across the batch.
// A per-sample MLP forward streams every weight matrix once per sample
// (memory-bound for the paper's 256-128 architecture); the batch path
// tiles samples so each weight row is loaded once per tile, and reuses
// scratch buffers so the hot path allocates nothing.
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
//
// The kernel is register-tiled over four samples: a scalar dot product
// is latency-bound on its single accumulator's FP dependency chain
// (one FMA every ~4 cycles), so per-sample inference leaves most of
// the FPU idle; four independent accumulators sharing one weight-row
// read give the instruction-level parallelism (and 4x less weight
// traffic) that makes batching pay — measured 2.0-2.3x at batch 100 on
// the paper's 256-128 MLP. (A wider 8-sample tile spills registers
// and measures slower.) Each accumulator performs the same operations
// in the same order as denseLayer.forward, so results are
// bit-identical to the per-sample path.
//
//fleetvet:noalloc
func forwardBatchDense(l *denseLayer, in, out []float64, n int, relu bool) {
	nIn, nOut := l.in, l.out
	s := 0
	for ; s+4 <= n; s += 4 {
		x0 := in[s*nIn : (s+1)*nIn]
		x1 := in[(s+1)*nIn : (s+2)*nIn]
		x2 := in[(s+2)*nIn : (s+3)*nIn]
		x3 := in[(s+3)*nIn : (s+4)*nIn]
		for o := 0; o < nOut; o++ {
			row := l.w[o*nIn : (o+1)*nIn]
			bias := l.b[o]
			a0, a1, a2, a3 := bias, bias, bias, bias
			x0 := x0[:len(row)]
			x1 := x1[:len(row)]
			x2 := x2[:len(row)]
			x3 := x3[:len(row)]
			for i, w := range row {
				a0 += w * x0[i]
				a1 += w * x1[i]
				a2 += w * x2[i]
				a3 += w * x3[i]
			}
			if relu {
				a0 = relu0(a0)
				a1 = relu0(a1)
				a2 = relu0(a2)
				a3 = relu0(a3)
			}
			out[s*nOut+o] = a0
			out[(s+1)*nOut+o] = a1
			out[(s+2)*nOut+o] = a2
			out[(s+3)*nOut+o] = a3
		}
	}
	for ; s < n; s++ {
		x := in[s*nIn : (s+1)*nIn]
		for o := 0; o < nOut; o++ {
			row := l.w[o*nIn : (o+1)*nIn]
			sum := l.b[o]
			for i, w := range row {
				sum += w * x[i]
			}
			if relu && sum < 0 {
				sum = 0
			}
			out[s*nOut+o] = sum
		}
	}
}

// relu0 matches forwardInfer's branch form exactly (preserving -0.0),
// keeping batch results bit-identical to the per-sample path.
func relu0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
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
		b.forwardLayer(l, cur, nxt, n, t)
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
// states into nxt (n x t x l.units). Gate weight rows are loaded once
// per timestep and reused across the whole batch, and the pre-activation
// dot products are register-tiled over four samples like
// forwardBatchDense: four independent accumulators share each weight
// read. Every accumulator adds the bias, then the input terms, then the
// hidden terms, in lstmLayer.forward's order, so results are
// bit-identical to the per-sample path.
//
//fleetvet:noalloc
func (b *LSTMBatch) forwardLayer(l *lstmLayer, cur, nxt []float64, n, t int) {
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
				iGate := sigmoid(zs[0])
				fGate := sigmoid(zs[1])
				gGate := math.Tanh(zs[2])
				oGate := sigmoid(zs[3])
				cv := fGate*c[s*u+uu] + iGate*gGate
				hv := oGate * math.Tanh(cv)
				c[s*u+uu] = cv
				h[s*u+uu] = hv
				nxt[(s*t+tt)*u+uu] = hv
			}
		}
	}
}
