package experiment

import (
	"reflect"
	"testing"

	"repro/internal/monitor"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// ragged copies traces with unequal lengths (trace k loses (13k mod n)
// trailing samples, so some end before the LSTM window fills) and
// inserts an empty trace in the middle: 38 lanes from the quick suite's
// 37 test traces, not a multiple of the four-lane tile.
func ragged(traces []*trace.Trace) []*trace.Trace {
	out := make([]*trace.Trace, 0, len(traces)+1)
	for k, tr := range traces {
		if k == len(traces)/2 {
			empty := *tr
			empty.Samples = nil
			out = append(out, &empty)
		}
		cp := *tr
		n := tr.Len() - (13*k)%tr.Len()
		cp.Samples = append([]trace.Sample(nil), tr.Samples[:n]...)
		out = append(out, &cp)
	}
	return out
}

// TestEvaluateMonitorBatchedMatchesReplay: DT, MLP and LSTM replay as
// batched lanes split over workers, and every per-sample verdict (and
// so every annotated alarm and every metric) must equal a per-session
// monitor.Replay at any worker count.
func TestEvaluateMonitorBatchedMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("suite training is seconds-long")
	}
	fx := quickSuite(t)
	traces := ragged(fx.test)
	if len(traces)%4 == 0 {
		t.Fatalf("%d lanes: want a lane count that is not a multiple of 4", len(traces))
	}
	for _, name := range []string{"DT", "MLP", "LSTM"} {
		want := make([][]monitor.Verdict, len(traces))
		for k, tr := range traces {
			m, err := fx.suite.NewMonitor(name, tr.PatientID)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = monitor.Replay(m, tr)
		}
		var first Eval
		for _, workers := range []int{1, 2, 3} {
			got, _, err := fx.suite.replay(name, traces, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %d workers: batched verdicts differ from monitor.Replay", name, workers)
			}
			ev, err := fx.suite.evaluateMonitor(name, traces, workers)
			if err != nil {
				t.Fatal(err)
			}
			for k, tr := range traces {
				for i, s := range tr.Samples {
					if v := want[k][i]; s.Alarm != v.Alarm || s.AlarmHazard != v.Hazard {
						t.Fatalf("%s at %d workers: trace %d sample %d annotated %v/%v, replay %v/%v",
							name, workers, k, i, s.Alarm, s.AlarmHazard, v.Alarm, v.Hazard)
					}
				}
			}
			if ev.StepTime <= 0 {
				t.Errorf("%s at %d workers: no step time", name, workers)
			}
			ev.StepTime = 0
			if workers == 1 {
				first = ev
			} else if !reflect.DeepEqual(ev, first) {
				t.Errorf("%s: eval at %d workers %+v, at 1 worker %+v", name, workers, ev, first)
			}
		}
	}
}

// BenchmarkReplayLSTM prices one LSTM replay over a fixed trace set
// (the quick campaign's 37 held-out traces, 150 cycles each) with the
// default 32-16 architecture: per-session monitor.Replay one trace at a
// time, monitor.ReplayBatch with every trace a lane of one batch
// monitor, and EvaluateMonitor's split of the lanes over GOMAXPROCS
// workers.
func BenchmarkReplayLSTM(b *testing.B) {
	plat := Glucosym()
	traces := quickCampaign(b, plat)
	folds := stllearn.Folds(traces, 4)
	ff, err := FaultFree(plat, []int{0, 4}, 0)
	if err != nil {
		b.Fatal(err)
	}
	suite, err := BuildSuite(plat, stllearn.TrainingSet(folds, 0), ff, SuiteConfig{
		Seed: 1, MaxMLSamples: 1000, MaxLSTMWindows: 200,
		MLPEpochs: 1, LSTMEpochs: 1, MLPHidden: []int{8},
	})
	if err != nil {
		b.Fatal(err)
	}
	test := folds[0]
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, tr := range test {
				m, err := suite.NewMonitor("LSTM", tr.PatientID)
				if err != nil {
					b.Fatal(err)
				}
				monitor.Replay(m, tr)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		m, err := suite.NewBatchMonitor("LSTM")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			monitor.ReplayBatch(m, test)
		}
	})
	b.Run("split", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := suite.EvaluateMonitor("LSTM", test); err != nil {
				b.Fatal(err)
			}
		}
	})
}
