package ml

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Batched training. FitMLP and FitLSTM run each mini-batch in three
// phases over row-major scratch:
//
//  1. Samples. The forward pass runs on the inference kernels,
//     forwardBatchDense and LSTMBatch.forwardLayer; then each sample's
//     backward pass (ReLU/dropout backprop, or BPTT through the LSTM
//     stack) stores its pre-activation gradients. Workers take
//     contiguous sample ranges.
//  2. Rows. gemm keeps each parameter's gradient in a register, or a
//     vector lane, and adds its terms in the order the per-sample loops
//     accumulated them: samples ascending and, inside a sample, LSTM
//     timesteps descending. Workers take contiguous ranges of weight
//     rows.
//  3. Serial. The caller scales each gradient to a mean, clips the LSTM
//     norms and steps Adam, in the order it always has.
//
// Each gradient is thus the same sum in the same order at any worker
// count, and so is every input gradient, whose terms keep the per-sample
// order of weight rows. Where the kernels differ from the per-sample
// loops they stay exact given finite inputs and weights (FitStandardizer
// rejects non-finite features): the per-sample BPTT skipped the terms of
// a zero pre-activation gradient, the kernels add them, and a finite
// value times zero leaves a sum unchanged because a sum that starts at
// +0 never becomes -0; likewise, a kernel that writes its sum starting
// at +0 equals accumulation into a zeroed gradient.
//
// The dropout masks come from the shared rng, so they are drawn for the
// whole mini-batch before the sample phase, in the per-sample order:
// sample, then hidden layer, then unit. The tests keep the per-sample
// trainers as the oracle every worker count must match bit for bit.

// team runs one phase at a time on a fixed set of workers. Worker 0 is
// the calling goroutine; the others are started once per fit and reused
// for every mini-batch. Between phases they spin, yielding the processor
// each round, for about as long as the serial Adam step and dropout
// draws between two mini-batches take, and only then park: waking a
// parked goroutine costs tens of microseconds on a virtualized host,
// a sizeable share of an MLP phase.
type team struct {
	n       int
	fn      func(w int)   // the current phase; written by run before seq moves
	seq     atomic.Uint64 // phases started so far
	pending atomic.Int64  // extra workers still inside the current phase
	stopped atomic.Bool
	mu      sync.Mutex
	wake    *sync.Cond // a parked worker waits here for seq or stopped
	done    *sync.Cond // a parked run waits here for pending to reach 0
	exit    sync.WaitGroup
}

// teamSpins bounds a spin. Each round yields the processor, about a
// tenth to a quarter of a microsecond when nothing else is runnable, so
// a spin outlasts the serial work between two phases (~0.1 ms).
const teamSpins = 2000

// newTeam starts the workers; stop ends them.
func newTeam(workers int) *team {
	t := &team{n: max(workers, 1)}
	t.wake = sync.NewCond(&t.mu)
	t.done = sync.NewCond(&t.mu)
	for w := 1; w < t.n; w++ {
		t.exit.Add(1)
		go t.serve(w)
	}
	return t
}

// serve runs worker w's share of each phase until stop.
func (t *team) serve(w int) {
	defer t.exit.Done()
	for seen := uint64(0); ; seen++ {
		for i := 0; t.seq.Load() == seen && !t.stopped.Load(); i++ {
			if i < teamSpins {
				runtime.Gosched()
				continue
			}
			t.mu.Lock()
			for t.seq.Load() == seen && !t.stopped.Load() {
				t.wake.Wait()
			}
			t.mu.Unlock()
		}
		if t.seq.Load() == seen {
			return // stopped
		}
		t.fn(w)
		if t.pending.Add(-1) == 0 {
			t.mu.Lock()
			t.done.Signal()
			t.mu.Unlock()
		}
	}
}

// size returns the number of workers.
func (t *team) size() int { return t.n }

// run calls fn(w) once for every worker w and returns when all calls
// have returned. The atomic counters order each phase's writes before
// the next phase's reads.
//
//fleetvet:noalloc
func (t *team) run(fn func(w int)) {
	if t.n == 1 {
		fn(0)
		return
	}
	t.fn = fn
	t.pending.Store(int64(t.n - 1))
	t.seq.Add(1)
	t.mu.Lock()
	t.wake.Broadcast()
	t.mu.Unlock()
	fn(0)
	for i := 0; t.pending.Load() != 0; i++ {
		if i < teamSpins {
			runtime.Gosched()
			continue
		}
		t.mu.Lock()
		for t.pending.Load() != 0 {
			t.done.Wait()
		}
		t.mu.Unlock()
	}
}

// stop ends the workers and waits for them to exit.
func (t *team) stop() {
	t.stopped.Store(true)
	t.mu.Lock()
	t.wake.Broadcast()
	t.mu.Unlock()
	t.exit.Wait()
}

// span returns worker w's contiguous share [lo, hi) of n items split
// over k workers.
func span(n, w, k int) (lo, hi int) { return n * w / k, n * (w + 1) / k }

// lstmCacheWidth is the forward state training caches per unit and
// timestep: the gate activations i, f, g, o, the cell state and its tanh.
const lstmCacheWidth = 6

// lstmTrainer holds FitLSTM's mini-batch scratch. Buffers indexed by a
// sample's position in the mini-batch are written by the worker that
// owns the sample in the sample phase and read by every worker in the
// row phase. The row phase reduces over one k per sample and timestep,
// k = s*t + (t-1-τ) for sample s at timestep τ, so that k ascending runs
// samples ascending and timesteps descending.
type lstmTrainer struct {
	m     *LSTM
	xs    []float64 // standardized training windows, len(X) x t x in
	y     []int
	t, n  int   // timesteps and mini-batch capacity
	batch []int // the current mini-batch, as indices into xs and y
	// seq[li] is layer li's input sequences (n x t x in); the last holds
	// the top layer's hidden states.
	seq [][]float64
	// cache[li] is layer li's forwardLayer cache.
	cache [][]float64
	// dz[li] is layer li's pre-activation gradients, one row per weight
	// row (gate*units+u), one column per k: 4*units x n*t.
	dz [][]float64
	// xh[li] holds, one row per k, what layer li's weight columns
	// multiply: the input, the previous hidden state (zero at τ = 0) and
	// a one for the bias: n*t x (in+units+1), gemm's k-major operand.
	xh [][]float64
	// wu[li] is layer li's weight rows in unit-then-gate order, row
	// u*4+gate, the order of one timestep's pre-activation gradients:
	// the BPTT input gradients' k-major operand (4*units x in+units+1).
	wu     [][]float64
	deltaT []float64 // the head's logit gradients, classes x n
	work   []lstmWorker
	team   *team

	valX [][][]float64 // the validation windows, raw
	valY []int
	valP []float64 // their class probabilities, len(valX) x classes

	samplePhase, rowPhase, valPhase func(w int)
}

// lstmWorker is one worker's private scratch.
type lstmWorker struct {
	b                    *LSTMBatch // forwardLayer state; also scores validation windows
	logits, probs, delta []float64  // classes
	// Running BPTT state (units) and one timestep's pre-activation
	// gradients, unit-major (units x 4).
	dh, dhPrev, dc, dcPrev, dzt []float64
	// Input gradients passed from one layer to the one below (t x units).
	dxUp, dxDown []float64
}

// newLSTMTrainer standardizes the training windows once and sizes the
// scratch for m's mini-batches on the given number of workers.
func newLSTMTrainer(m *LSTM, X [][][]float64, y []int, valIdx []int, workers int) *lstmTrainer {
	cfg := m.cfg
	t, n := cfg.Window, cfg.BatchSize
	workers = max(1, min(workers, n))
	in0 := m.layers[0].in
	tr := &lstmTrainer{m: m, y: y, t: t, n: n, xs: make([]float64, len(X)*t*in0)}
	for s, w := range X {
		for tt, frame := range w {
			row := tr.xs[(s*t+tt)*in0 : (s*t+tt+1)*in0]
			for j, v := range frame {
				row[j] = (v - m.std.Mean[j]) / m.std.Std[j]
			}
		}
	}
	maxUnits := 0
	tr.seq = append(tr.seq, make([]float64, n*t*in0))
	for _, l := range m.layers {
		maxUnits = max(maxUnits, l.units)
		tr.seq = append(tr.seq, make([]float64, n*t*l.units))
		tr.cache = append(tr.cache, make([]float64, n*t*l.units*lstmCacheWidth))
		tr.dz = append(tr.dz, make([]float64, 4*l.units*n*t))
		stride := l.in + l.units + 1
		xh := make([]float64, n*t*stride)
		for k := 0; k < n*t; k++ {
			xh[k*stride+stride-1] = 1
		}
		tr.xh = append(tr.xh, xh)
		tr.wu = append(tr.wu, make([]float64, 4*l.units*stride))
	}
	tr.deltaT = make([]float64, cfg.Classes*n)
	for _, i := range valIdx {
		tr.valX = append(tr.valX, X[i])
		tr.valY = append(tr.valY, y[i])
	}
	tr.valP = make([]float64, len(valIdx)*cfg.Classes)
	tr.work = make([]lstmWorker, workers)
	for w := range tr.work {
		b := m.NewBatch()
		b.ensure(n)
		tr.work[w] = lstmWorker{
			b:      b,
			logits: make([]float64, cfg.Classes), probs: make([]float64, cfg.Classes),
			delta: make([]float64, cfg.Classes),
			dh:    make([]float64, maxUnits), dhPrev: make([]float64, maxUnits),
			dc: make([]float64, maxUnits), dcPrev: make([]float64, maxUnits),
			dzt:  make([]float64, 4*maxUnits),
			dxUp: make([]float64, t*maxUnits), dxDown: make([]float64, t*maxUnits),
		}
	}
	tr.team = newTeam(workers)
	tr.samplePhase, tr.rowPhase, tr.valPhase = tr.samples, tr.rows, tr.validate
	return tr
}

// gradients overwrites every layer's gradient with the sum of the
// mini-batch's per-sample gradients.
//
//fleetvet:noalloc
func (tr *lstmTrainer) gradients(batch []int) {
	tr.batch = batch
	for li, l := range tr.m.layers {
		stride := l.in + l.units + 1
		for uu := 0; uu < l.units; uu++ {
			for gate := 0; gate < 4; gate++ {
				copy(tr.wu[li][(uu*4+gate)*stride:][:stride], l.gateRow(l.w, gate, uu))
			}
		}
	}
	tr.team.run(tr.samplePhase)
	tr.team.run(tr.rowPhase)
}

// samples is worker w's sample phase: the forward pass over its sample
// range, its rows of the row phase's inputs, then each sample's head and
// BPTT.
//
//fleetvet:noalloc
func (tr *lstmTrainer) samples(w int) {
	lo, hi := span(len(tr.batch), w, len(tr.work))
	if lo == hi {
		return
	}
	wk := &tr.work[w]
	m, t := tr.m, tr.t
	in0 := m.layers[0].in
	for s := lo; s < hi; s++ {
		src := tr.xs[tr.batch[s]*t*in0:][:t*in0]
		copy(tr.seq[0][s*t*in0:(s+1)*t*in0], src)
	}
	for li, l := range m.layers {
		cw := l.units * lstmCacheWidth
		wk.b.forwardLayer(l, tr.seq[li][lo*t*l.in:hi*t*l.in], tr.seq[li+1][lo*t*l.units:hi*t*l.units],
			hi-lo, t, tr.cache[li][lo*t*cw:hi*t*cw])
	}
	for li, l := range m.layers {
		in, u := l.in, l.units
		x, h := tr.seq[li], tr.seq[li+1]
		for s := lo; s < hi; s++ {
			for tt := 0; tt < t; tt++ {
				row := tr.xh[li][(s*t+t-1-tt)*(in+u+1):][:in+u]
				copy(row, x[(s*t+tt)*in:][:in])
				if tt > 0 {
					copy(row[in:], h[(s*t+tt-1)*u:][:u])
				} else {
					clear(row[in:])
				}
			}
		}
	}
	for s := lo; s < hi; s++ {
		tr.backward(wk, s)
	}
}

// backward runs sample s's softmax head and BPTT down the stack, writing
// its logit gradients to deltaT and its pre-activation gradients to dz.
// The arithmetic is the per-sample BPTT's, term for term.
//
//fleetvet:noalloc
func (tr *lstmTrainer) backward(wk *lstmWorker, s int) {
	m, t, nt := tr.m, tr.t, tr.n*tr.t
	nl := len(m.layers)
	top := m.layers[nl-1].units
	m.head.forward(tr.seq[nl][(s*t+t-1)*top:(s*t+t)*top], wk.logits)
	softmax(wk.logits, wk.probs)
	d := wk.delta
	for c := range d {
		d[c] = wk.probs[c]
		if c == tr.y[tr.batch[s]] {
			d[c]--
		}
		tr.deltaT[c*tr.n+s] = d[c]
	}
	// The head's input gradient seeds the top layer's dh.
	for i := 0; i < top; i++ {
		var sum float64
		for o, dv := range d {
			sum += m.head.w[o*top+i] * dv
		}
		wk.dh[i] = sum
	}
	up, down := wk.dxUp, wk.dxDown
	for li := nl - 1; li >= 0; li-- {
		l := m.layers[li]
		u, in := l.units, l.in
		dh, dhPrev := wk.dh[:u], wk.dhPrev[:u]
		dc, dcPrev := wk.dc[:u], wk.dcPrev[:u]
		if li < nl-1 {
			clear(dh)
		}
		clear(dc)
		cache := tr.cache[li][s*t*u*lstmCacheWidth : (s+1)*t*u*lstmCacheWidth]
		dz, wu, stride := tr.dz[li], tr.wu[li], in+u+1
		dzt := wk.dzt[:4*u]
		for tt := t - 1; tt >= 0; tt-- {
			if li < nl-1 {
				for uu, v := range up[tt*u : (tt+1)*u] {
					dh[uu] += v
				}
			}
			k := s*t + t - 1 - tt
			for uu := 0; uu < u; uu++ {
				st := cache[(tt*u+uu)*lstmCacheWidth:][:lstmCacheWidth]
				iG, fG, gG, oG, tanhC := st[0], st[1], st[2], st[3], st[5]
				var cPrev float64
				if tt > 0 {
					cPrev = cache[((tt-1)*u+uu)*lstmCacheWidth+4]
				}
				do := dh[uu] * tanhC
				dcv := dh[uu]*oG*(1-tanhC*tanhC) + dc[uu]
				di := dcv * gG
				dg := dcv * iG
				df := dcv * cPrev
				dcPrev[uu] = dcv * fG
				z := dzt[uu*4:][:4]
				z[0] = di * iG * (1 - iG)
				z[1] = df * fG * (1 - fG)
				z[2] = dg * (1 - gG*gG)
				z[3] = do * oG * (1 - oG)
				for gate, v := range z {
					dz[(gate*u+uu)*nt+k] = v
				}
			}
			// The gradients of the previous hidden state and of the
			// input sum their terms units ascending, then gates: the
			// row order of wu.
			if tt > 0 {
				gemm(dhPrev, 0, dzt, 0, wu[in:], stride, 1, u, 4*u, nil, false)
			}
			if li > 0 {
				gemm(down[tt*in:], 0, dzt, 0, wu, stride, 1, in, 4*u, nil, false)
			}
			dh, dhPrev = dhPrev, dh
			dc, dcPrev = dcPrev, dc
		}
		up, down = down, up
	}
}

// rows is worker w's row phase: its share of every layer's weight rows
// and of the head's.
//
//fleetvet:noalloc
func (tr *lstmTrainer) rows(w int) {
	k := len(tr.work)
	n, t, nt := len(tr.batch), tr.t, tr.n*tr.t
	for li, l := range tr.m.layers {
		stride := l.in + l.units + 1
		lo, hi := span(4*l.units, w, k)
		gemm(l.g[lo*stride:], stride, tr.dz[li][lo*nt:], nt, tr.xh[li], stride, hi-lo, stride, n*t, nil, false)
	}
	// The head's k-major operand is each sample's last hidden state of
	// the top layer, read in place.
	head, top := tr.m.head, tr.seq[len(tr.m.layers)]
	lo, hi := span(head.out, w, k)
	gemm(head.gw[lo*head.in:], head.in, tr.deltaT[lo*tr.n:], tr.n, top[(t-1)*head.in:], t*head.in, hi-lo, head.in, n, nil, false)
	for o := lo; o < hi; o++ {
		var gb float64
		for _, v := range tr.deltaT[o*tr.n:][:n] {
			gb += v
		}
		head.gb[o] = gb
	}
}

// validate is worker w's share of the validation forward pass.
//
//fleetvet:noalloc
func (tr *lstmTrainer) validate(w int) {
	lo, hi := span(len(tr.valX), w, len(tr.work))
	if lo < hi {
		c := tr.m.cfg.Classes
		tr.work[w].b.PredictProbaSeqBatchInto(tr.valX[lo:hi], tr.valP[lo*c:hi*c])
	}
}

// valLoss is the mean cross-entropy over the validation split, summed in
// split order.
func (tr *lstmTrainer) valLoss() float64 {
	if len(tr.valX) == 0 {
		return 0
	}
	tr.team.run(tr.valPhase)
	return meanCrossEntropy(tr.valP, tr.valY)
}

// meanCrossEntropy averages crossEntropy over row-major probabilities,
// one row per label, summing in label order.
func meanCrossEntropy(proba []float64, y []int) float64 {
	c := len(proba) / len(y)
	var sum float64
	for i, label := range y {
		sum += crossEntropy(proba[i*c:(i+1)*c], label)
	}
	return sum / float64(len(y))
}

// mlpTrainer holds FitMLP's mini-batch scratch, shared by sample
// position like lstmTrainer's.
type mlpTrainer struct {
	m     *MLP
	xs    []float64 // standardized training rows, len(X) x in
	y     []int
	rng   *rand.Rand
	n     int   // mini-batch capacity
	batch []int // the current mini-batch, as indices into xs and y
	// acts[li] is layer li's input (n x dims[li]), after ReLU and
	// dropout for hidden layers; the last holds the logits.
	acts [][]float64
	// masks[li] is hidden activation li's dropout scale, 0 or 1/keep
	// (n x dims[li]); masks[0] is unused.
	masks [][]float64
	// deltaT[li] is the gradient of layer li-1's output, after the ReLU
	// derivative and dropout for hidden layers, transposed (dims[li] x
	// n): the row phase's broadcast operand. Its k-major operand is
	// acts[li-1], read in place.
	deltaT [][]float64
	probs  [][]float64    // per worker, classes
	dx     [][2][]float64 // per worker, two gradient vectors of the widest layer
	team   *team

	valX  [][]float64 // the validation rows, raw
	valY  []int
	valP  []float64
	valMB []*MLPBatch // per worker

	samplePhase, rowPhase, valPhase func(w int)
}

// newMLPTrainer standardizes the training rows once and sizes the
// scratch for m's mini-batches on the given number of workers.
func newMLPTrainer(m *MLP, X [][]float64, y []int, valIdx []int, rng *rand.Rand, workers int) *mlpTrainer {
	cfg := m.cfg
	n := cfg.BatchSize
	workers = max(1, min(workers, n))
	d0 := m.layers[0].in
	tr := &mlpTrainer{m: m, y: y, rng: rng, n: n, xs: make([]float64, len(X)*d0)}
	for s, x := range X {
		row := tr.xs[s*d0 : (s+1)*d0]
		for j, v := range x {
			row[j] = (v - m.std.Mean[j]) / m.std.Std[j]
		}
	}
	widest := d0
	tr.acts = append(tr.acts, make([]float64, n*d0))
	tr.masks = append(tr.masks, nil)
	tr.deltaT = append(tr.deltaT, nil)
	for _, l := range m.layers {
		widest = max(widest, l.out)
		tr.acts = append(tr.acts, make([]float64, n*l.out))
		tr.masks = append(tr.masks, make([]float64, n*l.out))
		tr.deltaT = append(tr.deltaT, make([]float64, l.out*n))
	}
	for _, i := range valIdx {
		tr.valX = append(tr.valX, X[i])
		tr.valY = append(tr.valY, y[i])
	}
	tr.valP = make([]float64, len(valIdx)*cfg.Classes)
	for w := 0; w < workers; w++ {
		tr.probs = append(tr.probs, make([]float64, cfg.Classes))
		tr.dx = append(tr.dx, [2][]float64{make([]float64, widest), make([]float64, widest)})
		tr.valMB = append(tr.valMB, m.NewBatch())
	}
	tr.team = newTeam(workers)
	tr.samplePhase, tr.rowPhase, tr.valPhase = tr.samples, tr.rows, tr.validate
	return tr
}

// gradients draws the mini-batch's dropout masks, then overwrites every
// layer's gradient with the sum of its per-sample gradients.
//
//fleetvet:noalloc
func (tr *mlpTrainer) gradients(batch []int) {
	tr.batch = batch
	p := tr.m.cfg.Dropout
	scale := 1 / (1 - p)
	nl := len(tr.m.layers)
	for s := range batch {
		for li := 1; li < nl; li++ {
			d := tr.m.layers[li].in
			for i := range tr.masks[li][s*d : (s+1)*d] {
				if tr.rng.Float64() < p {
					tr.masks[li][s*d+i] = 0
				} else {
					tr.masks[li][s*d+i] = scale
				}
			}
		}
	}
	tr.team.run(tr.samplePhase)
	tr.team.run(tr.rowPhase)
}

// samples is worker w's sample phase: the forward pass over its sample
// range with the drawn dropout, then each sample's backprop.
//
//fleetvet:noalloc
func (tr *mlpTrainer) samples(w int) {
	lo, hi := span(len(tr.batch), w, tr.team.size())
	if lo == hi {
		return
	}
	layers := tr.m.layers
	nl := len(layers)
	d0 := layers[0].in
	for s := lo; s < hi; s++ {
		copy(tr.acts[0][s*d0:(s+1)*d0], tr.xs[tr.batch[s]*d0:][:d0])
	}
	for li, l := range layers {
		out := tr.acts[li+1][lo*l.out : hi*l.out]
		forwardBatchDense(l, tr.acts[li][lo*l.in:hi*l.in], out, hi-lo, li != nl-1)
		if li != nl-1 {
			for i, mk := range tr.masks[li+1][lo*l.out : hi*l.out] {
				// out = 0 if dropped, else out*mk, without a branch the
				// random masks would mispredict.
				var keep uint64
				if math.Float64bits(mk) != 0 {
					keep = ^uint64(0)
				}
				out[i] = math.Float64frombits(math.Float64bits(out[i]*mk) & keep)
			}
		}
	}
	classes := layers[nl-1].out
	probs := tr.probs[w]
	for s := lo; s < hi; s++ {
		d, next := tr.dx[w][0][:classes], tr.dx[w][1]
		softmax(tr.acts[nl][s*classes:(s+1)*classes], probs)
		for c := range d {
			d[c] = probs[c]
			if c == tr.y[tr.batch[s]] {
				d[c]--
			}
			tr.deltaT[nl][c*tr.n+s] = d[c]
		}
		for li := nl - 1; li > 0; li-- {
			l := layers[li]
			dx := next[:l.in]
			gemm(dx, 0, d, 0, l.w, l.in, 1, l.in, l.out, nil, false)
			act := tr.acts[li][s*l.in:][:l.in]
			mk := tr.masks[li][s*l.in:][:l.in]
			for i := range dx {
				// ReLU derivative and dropout mask: dx = 0 if act <= 0,
				// else dx*mk. The sign bit and exponent make act's bits,
				// read as an int64, positive exactly where act <= 0 is
				// false, NaN included.
				var keep uint64
				if int64(math.Float64bits(act[i])) > 0 {
					keep = ^uint64(0)
				}
				dx[i] = math.Float64frombits(math.Float64bits(dx[i]*mk[i]) & keep)
				tr.deltaT[li][i*tr.n+s] = dx[i]
			}
			d, next = dx, d[:cap(d)]
		}
	}
}

// rows is worker w's row phase: its share of every layer's weight rows.
//
//fleetvet:noalloc
func (tr *mlpTrainer) rows(w int) {
	k := tr.team.size()
	n := len(tr.batch)
	for li, l := range tr.m.layers {
		delta := tr.deltaT[li+1]
		lo, hi := span(l.out, w, k)
		gemm(l.gw[lo*l.in:], l.in, delta[lo*tr.n:], tr.n, tr.acts[li], l.in, hi-lo, l.in, n, nil, false)
		for o := lo; o < hi; o++ {
			var gb float64
			for _, v := range delta[o*tr.n:][:n] {
				gb += v
			}
			l.gb[o] = gb
		}
	}
}

// validate is worker w's share of the validation forward pass.
//
//fleetvet:noalloc
func (tr *mlpTrainer) validate(w int) {
	lo, hi := span(len(tr.valX), w, tr.team.size())
	if lo < hi {
		c := tr.m.cfg.Classes
		tr.valMB[w].PredictProbaBatchInto(tr.valX[lo:hi], tr.valP[lo*c:hi*c])
	}
}

// valLoss is the mean cross-entropy over the validation split, summed in
// split order.
func (tr *mlpTrainer) valLoss() float64 {
	if len(tr.valX) == 0 {
		return 0
	}
	tr.team.run(tr.valPhase)
	return meanCrossEntropy(tr.valP, tr.valY)
}
