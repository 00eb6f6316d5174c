package monitor

import (
	"repro/internal/ml"
	"repro/internal/trace"
)

// FeatureDim is the length of the Eq. 7 feature vector: the observable
// state xt plus the issued control action ut.
const FeatureDim = 6

// FeaturesFromSample extracts the Eq. 7 features from a recorded sample
// (for training-set construction), in the order featuresInto writes
// them for a live observation.
func FeaturesFromSample(s *trace.Sample) []float64 {
	return []float64{
		s.CGM,
		s.BGPrime,
		s.IOB,
		s.IOBPrime,
		s.Rate,
		float64(s.Action),
	}
}

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
	b, err := NewBatchML(name, clf)
	if err != nil {
		return nil, err
	}
	l := newLane(b)
	return &l, nil
}

// NewSequenceMonitor wraps a trained windowed classifier (LSTM) with
// window k as a per-session safety monitor: a one-lane BatchSequence,
// silent until its window fills. k must be the classifier's trained
// window, and each monitor needs its own classifier scratch (e.g.
// LSTM.NewBatch per call).
func NewSequenceMonitor(name string, clf ml.BatchSequenceClassifier, window int) (*Lane, error) {
	b, err := NewBatchSequence(name, clf, window)
	if err != nil {
		return nil, err
	}
	l := newLane(b)
	return &l, nil
}

// TrainingData assembles point-in-time training matrices from labeled
// traces per Eq. 7: a sample is positive when a hazard occurs at any
// future time of its trace. With multiClass, positives carry the hazard
// type (1=H1, 2=H2).
func TrainingData(traces []*trace.Trace, multiClass bool) (X [][]float64, y []int) {
	for _, tr := range traces {
		hazType := tr.DominantHazard()
		for i := range tr.Samples {
			s := &tr.Samples[i]
			label := 0
			// Positive when a hazard happens at any t' >= t (Eq. 7).
			if anyHazardAtOrAfter(tr, s.Step) {
				if multiClass {
					label = int(hazType)
				} else {
					label = 1
				}
			}
			X = append(X, FeaturesFromSample(s))
			y = append(y, label)
		}
	}
	return X, y
}

// SequenceTrainingData assembles windowed training data per Eq. 8.
func SequenceTrainingData(traces []*trace.Trace, window int, multiClass bool) (X [][][]float64, y []int) {
	for _, tr := range traces {
		hazType := tr.DominantHazard()
		for end := window; end <= tr.Len(); end++ {
			win := make([][]float64, window)
			for k := 0; k < window; k++ {
				win[k] = FeaturesFromSample(&tr.Samples[end-window+k])
			}
			label := 0
			if anyHazardAtOrAfter(tr, tr.Samples[end-1].Step) {
				if multiClass {
					label = int(hazType)
				} else {
					label = 1
				}
			}
			X = append(X, win)
			y = append(y, label)
		}
	}
	return X, y
}

func anyHazardAtOrAfter(tr *trace.Trace, step int) bool {
	for i := step; i < tr.Len(); i++ {
		if tr.Samples[i].Hazard != trace.HazardNone {
			return true
		}
	}
	return false
}
