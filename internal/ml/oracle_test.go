package ml

import (
	"math"
	"math/rand"
	"sort"
)

// The per-sample trainers: one sample at a time through scalar forward
// and backward passes that accumulate straight into the gradients. They
// are the oracle the batched trainers must match bit for bit. The
// scalar inference passes below are the oracle of batched inference.

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

// scalarPredictProba is the per-sample MLP inference pass.
func (m *MLP) scalarPredictProba(x []float64) []float64 {
	out := make([]float64, m.cfg.Classes)
	softmax(m.forwardInfer(m.std.Transform(x), make([]float64, m.inferLen())), out)
	return out
}

// lstmStep is the cached forward state of one timestep.
type lstmStep struct {
	x           []float64 // input at t
	i, f, gg, o []float64 // gate activations
	c, h        []float64 // cell and hidden state after t
	cPrev       []float64
	hPrev       []float64
}

// forward runs the layer over a sequence, returning cached steps.
func (l *lstmLayer) forward(seq [][]float64) []lstmStep {
	steps := make([]lstmStep, len(seq))
	hPrev := make([]float64, l.units)
	cPrev := make([]float64, l.units)
	for t, x := range seq {
		st := lstmStep{
			x: x,
			i: make([]float64, l.units), f: make([]float64, l.units),
			gg: make([]float64, l.units), o: make([]float64, l.units),
			c: make([]float64, l.units), h: make([]float64, l.units),
			cPrev: append([]float64(nil), cPrev...),
			hPrev: append([]float64(nil), hPrev...),
		}
		for u := 0; u < l.units; u++ {
			var z [4]float64
			for gate := 0; gate < 4; gate++ {
				row := l.gateRow(l.w, gate, u)
				sum := row[l.in+l.units] // bias
				for j, xj := range x {
					sum += row[j] * xj
				}
				for j, hj := range hPrev {
					sum += row[l.in+j] * hj
				}
				z[gate] = sum
			}
			st.i[u] = sigmoid(z[0])
			st.f[u] = sigmoid(z[1])
			st.gg[u] = math.Tanh(z[2])
			st.o[u] = sigmoid(z[3])
			st.c[u] = st.f[u]*cPrev[u] + st.i[u]*st.gg[u]
			st.h[u] = st.o[u] * math.Tanh(st.c[u])
		}
		copy(cPrev, st.c)
		copy(hPrev, st.h)
		steps[t] = st
	}
	return steps
}

// backward runs BPTT over cached steps. dhLast is the gradient wrt the
// final hidden state; dhSeq (optional, same length as steps) carries
// per-timestep hidden-state gradients from an upper layer. It returns
// per-timestep gradients wrt the inputs.
func (l *lstmLayer) backward(steps []lstmStep, dhLast []float64, dhSeq [][]float64) [][]float64 {
	T := len(steps)
	dx := make([][]float64, T)
	dhNext := make([]float64, l.units)
	dcNext := make([]float64, l.units)
	if dhLast != nil {
		copy(dhNext, dhLast)
	}
	for t := T - 1; t >= 0; t-- {
		st := &steps[t]
		dx[t] = make([]float64, l.in)
		if dhSeq != nil && dhSeq[t] != nil {
			for u := range dhNext {
				dhNext[u] += dhSeq[t][u]
			}
		}
		dhPrev := make([]float64, l.units)
		dcPrev := make([]float64, l.units)
		for u := 0; u < l.units; u++ {
			tanhC := math.Tanh(st.c[u])
			do := dhNext[u] * tanhC
			dc := dhNext[u]*st.o[u]*(1-tanhC*tanhC) + dcNext[u]
			di := dc * st.gg[u]
			dg := dc * st.i[u]
			df := dc * st.cPrev[u]
			dcPrev[u] = dc * st.f[u]

			// Pre-activation gradients.
			dzi := di * st.i[u] * (1 - st.i[u])
			dzf := df * st.f[u] * (1 - st.f[u])
			dzg := dg * (1 - st.gg[u]*st.gg[u])
			dzo := do * st.o[u] * (1 - st.o[u])

			for gate, dz := range [4]float64{dzi, dzf, dzg, dzo} {
				if dz == 0 {
					continue
				}
				wRow := l.gateRow(l.w, gate, u)
				gRow := l.gateRow(l.g, gate, u)
				for j, xj := range st.x {
					gRow[j] += dz * xj
					dx[t][j] += dz * wRow[j]
				}
				for j, hj := range st.hPrev {
					gRow[l.in+j] += dz * hj
					dhPrev[j] += dz * wRow[l.in+j]
				}
				gRow[l.in+l.units] += dz
			}
		}
		dhNext = dhPrev
		dcNext = dcPrev
	}
	return dx
}

func hiddenSeq(steps []lstmStep) [][]float64 {
	out := make([][]float64, len(steps))
	for i := range steps {
		out[i] = steps[i].h
	}
	return out
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

// scalarPredictProba is the per-sample LSTM forward pass.
func (m *LSTM) scalarPredictProba(window [][]float64) []float64 {
	cur := m.std.TransformAll(window)
	for _, l := range m.layers {
		cur = hiddenSeq(l.forward(cur))
	}
	logits := make([]float64, m.cfg.Classes)
	m.head.forward(cur[len(cur)-1], logits)
	out := make([]float64, m.cfg.Classes)
	softmax(logits, out)
	return out
}

// clearGrads zeroes the accumulated gradients.
func clearGrads(lstm []*lstmLayer, dense ...*denseLayer) {
	for _, l := range lstm {
		clear(l.g)
	}
	for _, l := range dense {
		clear(l.gw)
		clear(l.gb)
	}
}

// fitLSTMPerSample is FitLSTM one sample at a time. It also returns the
// number of epochs run, so tests can tell early stopping fired.
func fitLSTMPerSample(X [][][]float64, y []int, cfg LSTMConfig, rng *rand.Rand) (*LSTM, int, error) {
	model, trainIdx, valIdx, err := newLSTM(X, y, cfg, rng)
	if err != nil {
		return nil, 0, err
	}
	cfg = model.cfg
	probs := make([]float64, cfg.Classes)
	logits := make([]float64, cfg.Classes)
	deltaLogits := make([]float64, cfg.Classes)

	bestVal := math.Inf(1)
	bestW := model.snapshot()
	bad := 0
	epochs := 0

	order := append([]int(nil), trainIdx...)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochs++
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			clearGrads(model.layers, model.head)
			for _, idx := range order[start:end] {
				seq := model.std.TransformAll(X[idx])
				// Forward through the stack, caching each layer.
				caches := make([][]lstmStep, len(model.layers))
				cur := seq
				for li, l := range model.layers {
					caches[li] = l.forward(cur)
					cur = hiddenSeq(caches[li])
				}
				hLast := cur[len(cur)-1]
				model.head.forward(hLast, logits)
				softmax(logits, probs)
				for c := range deltaLogits {
					deltaLogits[c] = probs[c]
					if c == y[idx] {
						deltaLogits[c]--
					}
				}
				dhLast := make([]float64, len(hLast))
				model.head.backward(hLast, deltaLogits, dhLast)
				// Backprop through the stack.
				var dhSeq [][]float64
				dh := dhLast
				for li := len(model.layers) - 1; li >= 0; li-- {
					dx := model.layers[li].backward(caches[li], dh, dhSeq)
					dhSeq = dx
					dh = nil
				}
			}
			batch := float64(end - start)
			for _, l := range model.layers {
				l.step(batch, cfg.ClipNorm)
			}
			model.head.step(batch)
		}
		var valLoss float64
		if len(valIdx) > 0 {
			for _, i := range valIdx {
				valLoss += crossEntropy(model.scalarPredictProba(X[i]), y[i])
			}
			valLoss /= float64(len(valIdx))
		}
		if valLoss < bestVal-1e-6 {
			bestVal = valLoss
			bestW = model.snapshot()
			bad = 0
		} else {
			bad++
			if bad >= cfg.Patience {
				break
			}
		}
	}
	model.restore(bestW)
	return model, epochs, nil
}

// fitMLPPerSample is FitMLP one sample at a time. It also returns the
// number of epochs run.
func fitMLPPerSample(X [][]float64, y []int, cfg MLPConfig, rng *rand.Rand) (*MLP, int, error) {
	m, trainIdx, valIdx, err := newMLP(X, y, cfg, rng)
	if err != nil {
		return nil, 0, err
	}
	cfg = m.cfg
	Xs := m.std.TransformAll(X)
	dims := []int{m.layers[0].in}
	for _, l := range m.layers {
		dims = append(dims, l.out)
	}

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
	epochs := 0

	order := make([]int, len(trainIdx))
	copy(order, trainIdx)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochs++
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			clearGrads(nil, m.layers...)
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
		var valLoss float64
		if len(valIdx) > 0 {
			for _, i := range valIdx {
				softmax(m.forwardInfer(Xs[i], inferBuf), probs)
				valLoss += crossEntropy(probs, y[i])
			}
			valLoss /= float64(len(valIdx))
		}
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
	return m, epochs, nil
}

// fitTreePerNodeSort is the CART builder FitTree replaced: it sorts the
// node's rows by every feature at every node. It is the oracle the
// presorted builder must match node for node.
func fitTreePerNodeSort(X [][]float64, y []int, cfg TreeConfig) *Tree {
	cfg = cfg.withDefaults()
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return &Tree{cfg: cfg, root: buildPerNodeSort(X, y, idx, 0, cfg)}
}

func buildPerNodeSort(X [][]float64, y []int, idx []int, depth int, cfg TreeConfig) *treeNode {
	counts := make([]int, cfg.Classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	node := &treeNode{}
	pure := false
	for _, c := range counts {
		if c == len(idx) {
			pure = true
		}
	}
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeafSamples || pure {
		node.proba = probaFromCounts(counts)
		return node
	}

	feature, threshold, gain := bestSplitPerNodeSort(X, y, idx, cfg)
	if gain <= 1e-12 {
		node.proba = probaFromCounts(counts)
		return node
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeafSamples || len(right) < cfg.MinLeafSamples {
		node.proba = probaFromCounts(counts)
		return node
	}
	node.feature = feature
	node.threshold = threshold
	node.left = buildPerNodeSort(X, y, left, depth+1, cfg)
	node.right = buildPerNodeSort(X, y, right, depth+1, cfg)
	return node
}

// bestSplitPerNodeSort sorts every feature's values and scans them for
// the split with the highest Gini gain.
func bestSplitPerNodeSort(X [][]float64, y []int, idx []int, cfg TreeConfig) (feature int, threshold, gain float64) {
	nFeatures := len(X[idx[0]])
	parent := giniOf(y, idx, cfg.Classes)
	bestGain := 0.0
	bestFeature, bestThreshold := -1, 0.0

	order := make([]int, len(idx))
	leftCounts := make([]int, cfg.Classes)
	rightCounts := make([]int, cfg.Classes)
	for f := 0; f < nFeatures; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		for c := range leftCounts {
			leftCounts[c] = 0
			rightCounts[c] = 0
		}
		for _, i := range order {
			rightCounts[y[i]]++
		}
		nLeft, nRight := 0, len(order)
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			leftCounts[y[i]]++
			rightCounts[y[i]]--
			nLeft++
			nRight--
			if X[order[k]][f] == X[order[k+1]][f] {
				continue // cannot split between equal values
			}
			g := parent - (float64(nLeft)*giniCounts(leftCounts, nLeft)+
				float64(nRight)*giniCounts(rightCounts, nRight))/float64(len(order))
			if g > bestGain {
				bestGain = g
				bestFeature = f
				bestThreshold = (X[order[k]][f] + X[order[k+1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return 0, 0, 0
	}
	return bestFeature, bestThreshold, bestGain
}

func giniOf(y []int, idx []int, classes int) float64 {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	return giniCounts(counts, len(idx))
}
