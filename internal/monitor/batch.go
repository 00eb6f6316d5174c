package monitor

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/snapshot"
)

// BatchMonitor evaluates one control cycle for many concurrent sessions
// in a single call, amortizing model weight traffic across the batch
// (see internal/ml's batched inference). A BatchMonitor owns per-lane
// state and scratch buffers: create one per fleet shard; the wrapped
// model weights are shared and only read.
//
// A lane's verdicts do not depend on the batch width, so the
// per-session form of each batched monitor is its one-lane view (Lane).
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

// laneBatch is what a one-lane view needs of its batch monitor.
type laneBatch interface {
	BatchMonitor
	snapshot.LaneSnapshotter
}

// Lane is a one-lane view of a batch monitor: the per-session Monitor
// form of every batched monitor. NewGuideline, NewMPC, NewMLMonitor and
// NewSequenceMonitor return one; NewCAWT and NewCAWOT return a
// ContextAwareLane, which adds the rule monitor's streaming verdict. Its
// snapshot bytes are the lane's SnapshotLane bytes, so a session's
// monitor state moves between a one-lane view and any lane of a batch.
type Lane struct {
	b    laneBatch
	lane [1]int
	obs  [1]Observation
	out  [1]Verdict
}

var (
	_ Monitor              = (*Lane)(nil)
	_ snapshot.Snapshotter = (*Lane)(nil)
)

// laneOf returns the one-lane view of a freshly built batch monitor,
// passing its constructor's error through.
func laneOf[B laneBatch](b B, err error) (*Lane, error) {
	if err != nil {
		return nil, err
	}
	b.ResetLanes(1)
	return &Lane{b: b}, nil
}

// NewLane returns the one-lane view of a batch monitor. Every batch
// monitor of this package has one; a monitor that cannot snapshot its
// lanes is rejected.
func NewLane(b BatchMonitor) (*Lane, error) {
	lb, ok := b.(laneBatch)
	if !ok {
		return nil, fmt.Errorf("monitor: %s does not snapshot its lanes", b.Name())
	}
	return laneOf(lb, nil)
}

// Name implements Monitor.
func (l *Lane) Name() string { return l.b.Name() }

// Reset implements Monitor.
func (l *Lane) Reset() { l.b.ResetLanes(1) }

// Step implements Monitor.
func (l *Lane) Step(obs Observation) Verdict {
	l.obs[0] = obs
	l.b.StepBatch(l.lane[:], l.obs[:], l.out[:])
	return l.out[0]
}

// UsesBasal implements BasalSensitive for the lanes of basal-sensitive
// batch monitors.
func (l *Lane) UsesBasal() bool {
	bs, ok := l.b.(BasalSensitive)
	return ok && bs.UsesBasal()
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
// BatchMonitor per Eq. 7. It is stateless across cycles, so lanes only
// size the scratch buffers. Each verdict carries the predicted class's
// probability as Confidence, from the same single forward pass that
// decides the alarm.
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
// BatchMonitor per Eq. 8: it keeps a sliding window of the last k
// observations per lane, and a lane stays silent until its window
// fills.
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

// ResetLanes implements BatchMonitor. At an unchanged width it only
// empties the windows.
func (b *BatchSequence) ResetLanes(n int) {
	if n == len(b.lanes) {
		for i := range b.lanes {
			b.ResetLane(i)
		}
		return
	}
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
// yet stay silent.
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
