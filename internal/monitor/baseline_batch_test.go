package monitor_test

import (
	"bytes"
	"testing"

	"repro/internal/monitor"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// laneMonitor is a batch monitor that snapshots per lane, as
// BatchGuideline and BatchMPC do.
type laneMonitor interface {
	monitor.BatchMonitor
	snapshot.LaneSnapshotter
}

// scalarOracle is a per-session reference monitor with its own
// snapshot encoding.
type scalarOracle interface {
	monitor.Monitor
	snapshot.Snapshotter
}

// Steps of checkBatchMatchesOracle's schedule: the cycle at which one
// lane resets, and the cycle at which every lane's state is compared as
// bytes and the run moves to a freshly restored batch.
const (
	resetAt   = 17
	restoreAt = 37
)

// checkBatchMatchesOracle replays fleet traces as ragged lanes of a
// batch monitor at several widths, against one scalar oracle per lane:
// every verdict must equal the oracle's; one lane resets mid-run
// (ResetLane vs the oracle's Reset); at restoreAt every lane's
// SnapshotLane bytes must equal its oracle's SnapshotState bytes, and
// the run continues on a fresh batch restored from the oracles' bytes,
// whose re-snapshot must reproduce them. It returns the alarms seen, so
// callers can reject a vacuous comparison.
func checkBatchMatchesOracle(t *testing.T, traces []*trace.Trace, newBatch func() (laneMonitor, error), newOracle func() (scalarOracle, error)) int {
	t.Helper()
	alarms := 0
	for _, width := range []int{1, 2, 5, 16} {
		for lo := 0; lo < len(traces); lo += width {
			group := traces[lo:min(lo+width, len(traces))]
			// Ragged lanes: lane k stops (13k mod 40) cycles early.
			ends := make([]int, len(group))
			steps := 0
			for k, tr := range group {
				ends[k] = tr.Len() - (13*k)%40
				steps = max(steps, ends[k])
			}
			b, err := newBatch()
			if err != nil {
				t.Fatal(err)
			}
			b.ResetLanes(len(group))
			oracles := make([]scalarOracle, len(group))
			for k := range oracles {
				if oracles[k], err = newOracle(); err != nil {
					t.Fatal(err)
				}
			}
			var lanes []int
			var obs []monitor.Observation
			out := make([]monitor.Verdict, len(group))
			for i := 0; i < steps; i++ {
				if i == resetAt {
					reset := len(group) / 2
					b.ResetLane(reset)
					oracles[reset].Reset()
				}
				if i == restoreAt {
					b = restoredBatch(t, b, oracles, newBatch)
				}
				lanes, obs = lanes[:0], obs[:0]
				for k, tr := range group {
					if i < ends[k] {
						lanes = append(lanes, k)
						obs = append(obs, monitor.ObservationAt(tr, i))
					}
				}
				b.StepBatch(lanes, obs, out[:len(lanes)])
				for j, k := range lanes {
					want := oracles[k].Step(obs[j])
					if out[j] != want {
						t.Fatalf("%s width %d lane %d cycle %d: batch %+v, oracle %+v",
							b.Name(), width, lo+k, i, out[j], want)
					}
					if want.Alarm {
						alarms++
					}
				}
			}
		}
	}
	return alarms
}

// restoredBatch checks that every lane of b snapshots to its oracle's
// bytes, then returns a fresh batch whose lanes restore from those
// bytes and re-snapshot to them.
func restoredBatch(t *testing.T, b laneMonitor, oracles []scalarOracle, newBatch func() (laneMonitor, error)) laneMonitor {
	t.Helper()
	fresh, err := newBatch()
	if err != nil {
		t.Fatal(err)
	}
	fresh.ResetLanes(len(oracles))
	for k, o := range oracles {
		want := snapshot.NewEncoder()
		o.SnapshotState(want)
		got := snapshot.NewEncoder()
		b.SnapshotLane(k, got)
		if !bytes.Equal(got.Payload(), want.Payload()) {
			t.Fatalf("%s lane %d: SnapshotLane bytes %x, oracle SnapshotState %x", b.Name(), k, got.Payload(), want.Payload())
		}
		dec := snapshot.NewDecoder(want.Payload())
		if err := fresh.RestoreLane(k, dec); err != nil {
			t.Fatal(err)
		}
		if err := dec.Finish(); err != nil {
			t.Fatalf("%s lane %d: restore left bytes: %v", b.Name(), k, err)
		}
		again := snapshot.NewEncoder()
		fresh.SnapshotLane(k, again)
		if !bytes.Equal(again.Payload(), want.Payload()) {
			t.Fatalf("%s lane %d: restored lane re-snapshots to %x, want %x", b.Name(), k, again.Payload(), want.Payload())
		}
	}
	return fresh
}

// TestBatchGuidelineMatchesOracle: BatchGuideline is the scalar
// Guideline monitor per lane, over fleet traces of every fault kind
// with and without sensor noise.
func TestBatchGuidelineMatchesOracle(t *testing.T) {
	cfg := monitor.GuidelineConfig{Lambda10: 85, Lambda90: 165}
	for _, noise := range []float64{0, 3} {
		alarms := checkBatchMatchesOracle(t, diffTraces(t, noise, 11),
			func() (laneMonitor, error) { return monitor.NewBatchGuideline(cfg) },
			func() (scalarOracle, error) { return monitor.NewGuidelineOracle(cfg) })
		if alarms == 0 {
			t.Fatalf("noise %v: no alarms — comparison is vacuous", noise)
		}
	}
}

// TestBatchMPCMatchesOracle: BatchMPC is the scalar MPC monitor per
// lane, over the same traces, at two prediction horizons.
func TestBatchMPCMatchesOracle(t *testing.T) {
	for _, cfg := range []monitor.MPCConfig{{Basal: 1.3}, {Basal: 0.9, HorizonMin: 120}} {
		for _, noise := range []float64{0, 3} {
			alarms := checkBatchMatchesOracle(t, diffTraces(t, noise, 11),
				func() (laneMonitor, error) { return monitor.NewBatchMPC(cfg) },
				func() (scalarOracle, error) { return monitor.NewMPCOracle(cfg) })
			if alarms == 0 {
				t.Fatalf("%+v noise %v: no alarms — comparison is vacuous", cfg, noise)
			}
		}
	}
}
