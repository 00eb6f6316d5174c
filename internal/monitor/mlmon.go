package monitor

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/trace"
)

// Features extracts the ML feature vector of Eq. 7 from an observation:
// the observable state xt plus the issued control action ut.
func Features(obs Observation) []float64 {
	return []float64{
		obs.CGM,
		obs.BGPrime,
		obs.IOB,
		obs.IOBPrime,
		obs.Rate,
		float64(obs.Action),
	}
}

// FeatureDim is the length of the Features vector.
const FeatureDim = 6

// FeaturesFromSample extracts the same features from a recorded sample
// (for training-set construction).
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

// MLMonitor wraps a point-in-time classifier (DT, MLP) as a safety
// monitor per Eq. 7.
type MLMonitor struct {
	name string
	clf  ml.Classifier
}

var _ Monitor = (*MLMonitor)(nil)

// NewMLMonitor wraps a trained classifier.
func NewMLMonitor(name string, clf ml.Classifier) (*MLMonitor, error) {
	if clf == nil {
		return nil, fmt.Errorf("monitor: nil classifier")
	}
	return &MLMonitor{name: name, clf: clf}, nil
}

// Name implements Monitor.
func (m *MLMonitor) Name() string { return m.name }

// Reset implements Monitor.
func (m *MLMonitor) Reset() {}

// Step implements Monitor. The verdict carries the predicted class's
// probability as Confidence, from the same single forward pass that
// decides the alarm.
func (m *MLMonitor) Step(obs Observation) Verdict {
	return probaToVerdict(m.clf.PredictProba(Features(obs)), m.clf.Classes())
}

// SequenceMonitor wraps a windowed classifier (LSTM) as a safety monitor
// per Eq. 8: it maintains a sliding window of the last k observations
// and stays silent until the window fills.
type SequenceMonitor struct {
	name   string
	clf    ml.SequenceClassifier
	window int
	buf    [][]float64
}

var _ Monitor = (*SequenceMonitor)(nil)

// NewSequenceMonitor wraps a trained sequence classifier with window k.
// A classifier that reports its trained window (ml.LSTM does) must have
// been trained on k.
func NewSequenceMonitor(name string, clf ml.SequenceClassifier, window int) (*SequenceMonitor, error) {
	if clf == nil {
		return nil, fmt.Errorf("monitor: nil sequence classifier")
	}
	if window <= 0 {
		return nil, fmt.Errorf("monitor: invalid window %d", window)
	}
	if w, ok := clf.(interface{ Window() int }); ok && w.Window() != window {
		return nil, fmt.Errorf("monitor: window %d does not match the classifier's trained window %d", window, w.Window())
	}
	return &SequenceMonitor{name: name, clf: clf, window: window}, nil
}

// Name implements Monitor.
func (m *SequenceMonitor) Name() string { return m.name }

// Reset implements Monitor.
func (m *SequenceMonitor) Reset() { m.buf = m.buf[:0] }

// Step implements Monitor.
func (m *SequenceMonitor) Step(obs Observation) Verdict {
	m.buf = append(m.buf, Features(obs))
	if len(m.buf) > m.window {
		m.buf = m.buf[1:]
	}
	if len(m.buf) < m.window {
		return Verdict{}
	}
	return probaToVerdict(m.clf.PredictProba(m.buf), m.clf.Classes())
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
