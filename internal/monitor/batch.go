package monitor

import (
	"fmt"

	"repro/internal/ml"
)

// BatchMonitor evaluates one control cycle for many concurrent sessions
// in a single call, amortizing model weight traffic across the batch
// (see internal/ml's batched inference). A BatchMonitor owns per-lane
// state and scratch buffers: create one per fleet shard; the wrapped
// model weights are shared and only read.
//
// Verdicts are identical to running the corresponding per-session
// Monitor on each lane.
type BatchMonitor interface {
	Name() string
	// ResetLanes prepares n independent session lanes, clearing any
	// per-lane state.
	ResetLanes(n int)
	// ResetLane clears one lane's state (a session restarting in place).
	ResetLane(lane int)
	// StepBatch evaluates obs[k] as the next cycle of session lane
	// lanes[k], writing the verdict into out[k].
	StepBatch(lanes []int, obs []Observation, out []Verdict)
}

// featuresInto writes the Eq. 7 feature vector into dst (len FeatureDim).
func featuresInto(dst []float64, obs Observation) {
	dst[0] = obs.CGM
	dst[1] = obs.BGPrime
	dst[2] = obs.IOB
	dst[3] = obs.IOBPrime
	dst[4] = obs.Rate
	dst[5] = float64(obs.Action)
}

// BatchML wraps a point-in-time batch classifier (DT, MLP) as a
// BatchMonitor. It is stateless across cycles, so lanes only size the
// scratch buffers.
type BatchML struct {
	name  string
	clf   ml.BatchClassifier
	flat  []float64
	feats [][]float64
	proba []float64
}

var _ BatchMonitor = (*BatchML)(nil)

// NewBatchML wraps a trained batch classifier.
func NewBatchML(name string, clf ml.BatchClassifier) (*BatchML, error) {
	if clf == nil {
		return nil, fmt.Errorf("monitor: nil batch classifier")
	}
	return &BatchML{name: name, clf: clf}, nil
}

// Name implements BatchMonitor.
func (b *BatchML) Name() string { return b.name }

// ResetLanes implements BatchMonitor.
func (b *BatchML) ResetLanes(n int) { b.ensure(n) }

// ResetLane implements BatchMonitor.
func (b *BatchML) ResetLane(int) {}

func (b *BatchML) ensure(n int) {
	if n <= len(b.feats) {
		return
	}
	b.flat = make([]float64, n*FeatureDim)
	b.feats = make([][]float64, n)
	for i := range b.feats {
		b.feats[i] = b.flat[i*FeatureDim : (i+1)*FeatureDim]
	}
	b.proba = make([]float64, n*b.clf.Classes())
}

// StepBatch implements BatchMonitor.
func (b *BatchML) StepBatch(lanes []int, obs []Observation, out []Verdict) {
	n := len(obs)
	if n == 0 {
		return
	}
	b.ensure(n)
	for k, o := range obs {
		featuresInto(b.feats[k], o)
	}
	b.clf.PredictProbaBatchInto(b.feats[:n], b.proba)
	classes := b.clf.Classes()
	for k := 0; k < n; k++ {
		out[k] = probaToVerdict(b.proba[k*classes:(k+1)*classes], classes)
	}
}

// seqLane is one session's sliding feature window.
type seqLane struct {
	frames [][]float64 // ring of window frames
	n      int         // frames filled so far
	head   int         // index of the oldest frame
}

// BatchSequence wraps a windowed batch classifier (LSTM) as a
// BatchMonitor, keeping a sliding feature window per lane like
// SequenceMonitor does per session.
type BatchSequence struct {
	name   string
	clf    ml.BatchSequenceClassifier
	window int
	lanes  []seqLane

	// Per-call scratch.
	wins  [][][]float64
	ready []int
	proba []float64
	views [][]float64 // window x lanes ordered-frame views, flattened
}

var _ BatchMonitor = (*BatchSequence)(nil)

// NewBatchSequence wraps a trained batch sequence classifier with
// window k, which must be the window the classifier was trained on: the
// batched kernel reads exactly clf.Window() frames per lane, so any
// other k would feed it stale or neighbouring frames.
func NewBatchSequence(name string, clf ml.BatchSequenceClassifier, window int) (*BatchSequence, error) {
	if clf == nil {
		return nil, fmt.Errorf("monitor: nil batch sequence classifier")
	}
	if window <= 0 {
		return nil, fmt.Errorf("monitor: invalid window %d", window)
	}
	if w := clf.Window(); window != w {
		return nil, fmt.Errorf("monitor: window %d does not match the classifier's trained window %d", window, w)
	}
	return &BatchSequence{name: name, clf: clf, window: window}, nil
}

// Name implements BatchMonitor.
func (b *BatchSequence) Name() string { return b.name }

// ResetLanes implements BatchMonitor.
func (b *BatchSequence) ResetLanes(n int) {
	b.lanes = make([]seqLane, n)
	for i := range b.lanes {
		frames := make([][]float64, b.window)
		backing := make([]float64, b.window*FeatureDim)
		for j := range frames {
			frames[j] = backing[j*FeatureDim : (j+1)*FeatureDim]
		}
		b.lanes[i] = seqLane{frames: frames}
	}
	b.wins = make([][][]float64, 0, n)
	b.ready = make([]int, 0, n)
	b.proba = make([]float64, n*b.clf.Classes())
	b.views = make([][]float64, n*b.window)
}

// ResetLane implements BatchMonitor.
func (b *BatchSequence) ResetLane(lane int) {
	b.lanes[lane].n = 0
	b.lanes[lane].head = 0
}

// StepBatch implements BatchMonitor. Lanes whose window has not filled
// yet stay silent, matching SequenceMonitor.
func (b *BatchSequence) StepBatch(lanes []int, obs []Observation, out []Verdict) {
	b.wins = b.wins[:0]
	b.ready = b.ready[:0]
	for k, o := range obs {
		l := &b.lanes[lanes[k]]
		// Overwrite the oldest frame.
		slot := (l.head + l.n) % b.window
		if l.n == b.window {
			slot = l.head
			l.head = (l.head + 1) % b.window
		} else {
			l.n++
		}
		featuresInto(l.frames[slot], o)
		out[k] = Verdict{}
		if l.n < b.window {
			continue
		}
		// Ordered view of the ring.
		view := b.views[len(b.wins)*b.window : (len(b.wins)+1)*b.window]
		for j := 0; j < b.window; j++ {
			view[j] = l.frames[(l.head+j)%b.window]
		}
		b.wins = append(b.wins, view)
		b.ready = append(b.ready, k)
	}
	if len(b.wins) == 0 {
		return
	}
	b.clf.PredictProbaSeqBatchInto(b.wins, b.proba)
	classes := b.clf.Classes()
	for i, k := range b.ready {
		out[k] = probaToVerdict(b.proba[i*classes:(i+1)*classes], classes)
	}
}
