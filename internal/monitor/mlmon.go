package monitor

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ml"
	"repro/internal/trace"
)

// FeatureDim is the length of the Eq. 7 feature vector: the observable
// state xt plus the issued control action ut.
const FeatureDim = 6

// classToHazard maps a classifier output to a hazard verdict. Binary
// classifiers emit class 1 = unsafe (hazard type unknown: report H2's
// conservative counterpart by glucose side is unavailable, so Unknown
// maps to H1, the acute hazard). Multi-class classifiers emit
// 0=safe, 1=H1, 2=H2.
func classToHazard(class, classes int) Verdict {
	switch {
	case class == 0:
		return Verdict{}
	case classes == 2:
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	case class == 1:
		return Verdict{Alarm: true, Hazard: trace.HazardH1}
	default:
		return Verdict{Alarm: true, Hazard: trace.HazardH2}
	}
}

// probaToVerdict derives the verdict from one class-probability pass:
// the argmax class decides alarm and hazard exactly as Predict would,
// and its probability becomes the verdict's Confidence.
func probaToVerdict(proba []float64, classes int) Verdict {
	class, best := 0, proba[0]
	for i, p := range proba {
		if p > best {
			class, best = i, p
		}
	}
	v := classToHazard(class, classes)
	v.Confidence = best
	return v
}

// NewMLMonitor wraps a trained point-in-time classifier (DT, MLP) as a
// per-session safety monitor: a one-lane BatchML. The classifier's
// scratch belongs to the monitor, so give each monitor its own (e.g.
// MLP.NewBatch per call); a Tree holds none and may be shared.
func NewMLMonitor(name string, clf ml.BatchClassifier) (*Lane, error) {
	return laneOf(NewBatchML(name, clf))
}

// NewSequenceMonitor wraps a trained windowed classifier (LSTM) with
// window k as a per-session safety monitor: a one-lane BatchSequence,
// silent until its window fills. k must be the classifier's trained
// window, and each monitor needs its own classifier scratch (e.g.
// LSTM.NewBatch per call).
func NewSequenceMonitor(name string, clf ml.BatchSequenceClassifier, window int) (*Lane, error) {
	return laneOf(NewBatchSequence(name, clf, window))
}

// DrawRows draws the point-in-time training set of Eq. 7 from labeled
// traces: one feature row per sample, positive when a hazard occurs at
// that sample or later in its trace. With multiClass, positives carry
// the trace's dominant hazard type (1=H1, 2=H2). When the traces hold
// more than limit samples, the rows kept are those at rng.Perm(n)[:limit]
// of the n samples in trace-major order, in that order; otherwise every
// row is kept in order and rng is not drawn from. Only kept rows are
// built, and they share one backing array.
func DrawRows(traces []*trace.Trace, multiClass bool, limit int, rng *rand.Rand) ([][]float64, []int, error) {
	frames, y, err := drawTrainingSet(traces, 1, multiClass, limit, rng)
	if err != nil {
		return nil, nil, err
	}
	return frameViews(frames), y, nil
}

// DrawWindows draws the windowed training set of Eq. 8: every run of
// window consecutive samples in a trace, labeled like its last sample
// under Eq. 7, kept and ordered exactly as DrawRows keeps rows. Each
// window is a view of window frames in one shared backing array.
func DrawWindows(traces []*trace.Trace, window int, multiClass bool, limit int, rng *rand.Rand) ([][][]float64, []int, error) {
	frames, y, err := drawTrainingSet(traces, window, multiClass, limit, rng)
	if err != nil {
		return nil, nil, err
	}
	views := frameViews(frames)
	X := make([][][]float64, len(y))
	for i := range X {
		X[i] = views[i*window : (i+1)*window : (i+1)*window]
	}
	return X, y, nil
}

// frameViews cuts a frame-major feature array into FeatureDim-long
// rows.
func frameViews(frames []float64) [][]float64 {
	views := make([][]float64, len(frames)/FeatureDim)
	for i := range views {
		views[i] = frames[i*FeatureDim : (i+1)*FeatureDim : (i+1)*FeatureDim]
	}
	return views
}

// drawTrainingSet is the sampler behind DrawRows and DrawWindows. It
// numbers the training positions — every full window, trace by trace —
// draws the kept positions first, and builds features and labels only
// for those: the frames of kept window i fill
// frames[i*window*FeatureDim:], oldest first, each the features of the
// cycle's replayed observation, as the monitor reads them online. Labels take one scan per
// trace instead of a rescan of its tail per window: a window is
// positive exactly when its last sample is at or before the trace's
// last hazard.
func drawTrainingSet(traces []*trace.Trace, window int, multiClass bool, limit int, rng *rand.Rand) ([]float64, []int, error) {
	if window < 1 {
		return nil, nil, fmt.Errorf("monitor: training window %d, want at least 1", window)
	}
	if limit < 0 {
		return nil, nil, fmt.Errorf("monitor: negative training-set limit %d", limit)
	}
	spans := make([]positionSpan, len(traces)+1)
	for t, tr := range traces {
		spans[t].last, spans[t].positive = lastHazard(tr, multiClass)
		spans[t+1].first = spans[t].first + max(tr.Len()-window+1, 0)
	}
	n := spans[len(traces)].first
	var pick []int
	if n > limit {
		pick = rng.Perm(n)[:limit]
		n = limit
	}
	frames := make([]float64, n*window*FeatureDim)
	y := make([]int, n)
	for i := range y {
		p := i
		if pick != nil {
			p = pick[i]
		}
		// The owning trace: the first whose positions end after p.
		t := sort.Search(len(traces), func(t int) bool { return spans[t+1].first > p })
		end := p - spans[t].first + window - 1
		if end <= spans[t].last {
			y[i] = spans[t].positive
		}
		dst := frames[i*window*FeatureDim : (i+1)*window*FeatureDim]
		for k := 0; k < window; k++ {
			featuresInto(dst[k*FeatureDim:], observation(traces[t], end-window+1+k))
		}
	}
	return frames, y, nil
}

// positionSpan is one trace's share of the training positions, which
// start at first (the next span's first ends them), with the index of
// its last hazard-labeled sample (-1 when there is none) and the label
// of its positives.
type positionSpan struct {
	first, last, positive int
}

// lastHazard scans a trace from its end for the last hazard-labeled
// sample and returns its index (-1 when there is none) and the label
// of Eq. 7's positives in that trace.
func lastHazard(tr *trace.Trace, multiClass bool) (last, positive int) {
	for i := tr.Len() - 1; i >= 0; i-- {
		if tr.Samples[i].Hazard != trace.HazardNone {
			if multiClass {
				return i, int(tr.DominantHazard())
			}
			return i, 1
		}
	}
	return -1, 0
}
