// Snapshot/restore of monitor state. Each monitor serializes exactly
// the state that shapes its future verdicts; derived caches (last
// verdicts, fired-rule scratch) are recomputed on the next step and are
// not part of the encoding. A batched monitor encodes one lane at a
// time, and its one-lane view (Lane) encodes exactly those lane bytes,
// so a session can be snapshotted from a batched lane and restored into
// a per-session monitor or vice versa.

package monitor

import (
	"fmt"

	"repro/internal/scs"
	"repro/internal/snapshot"
)

var (
	_ snapshot.LaneSnapshotter = (*BatchContextAware)(nil)
	_ snapshot.LaneSnapshotter = (*BatchGuideline)(nil)
	_ snapshot.LaneSnapshotter = (*BatchML)(nil)
	_ snapshot.LaneSnapshotter = (*BatchSequence)(nil)
	_ snapshot.LaneSnapshotter = (*BatchMPC)(nil)
)

// SnapshotState implements snapshot.Snapshotter with the lane's
// SnapshotLane bytes.
func (l *Lane) SnapshotState(enc *snapshot.Encoder) { l.b.SnapshotLane(0, enc) }

// RestoreState implements snapshot.Snapshotter. The batch is reset
// first, so a restore replaces all state as into a fresh monitor (a
// context-aware lane recompiles at a restored sampling period even
// after it has stepped).
func (l *Lane) RestoreState(dec *snapshot.Decoder) error {
	l.b.ResetLanes(1)
	return l.b.RestoreLane(0, dec)
}

// SnapshotLane implements snapshot.LaneSnapshotter: the compiled
// sampling period followed by the lane's rule-stream state.
func (m *BatchContextAware) SnapshotLane(lane int, enc *snapshot.Encoder) {
	enc.Float64(m.dt)
	m.streams.SnapshotLane(lane, enc)
}

// RestoreLane implements snapshot.LaneSnapshotter. A sampling-period
// mismatch recompiles the whole batch only while no lane holds state;
// once any lane is live the periods must agree, because every lane of a
// batch shares one compiled rule set.
func (m *BatchContextAware) RestoreLane(lane int, dec *snapshot.Decoder) error {
	dt := dec.Float64()
	if err := dec.Err(); err != nil {
		return err
	}
	if dt <= 0 {
		return fmt.Errorf("monitor: invalid restored sampling period %v", dt)
	}
	if dt != m.dt {
		if m.streams != nil && m.streams.Len() > 0 {
			return fmt.Errorf("monitor: lane snapshot at dt=%v cannot join a live batch compiled at dt=%v", dt, m.dt)
		}
		m.dt = dt
		m.rebuild()
	}
	if err := m.streams.RestoreLane(lane, dec); err != nil {
		return err
	}
	m.last[lane] = scs.StreamVerdict{}
	m.lastOK[lane] = false
	m.lastFired[lane] = m.lastFired[lane][:0]
	return nil
}

// SnapshotLane implements snapshot.LaneSnapshotter: the lane's CGM
// history point and its two duration timers (NaN while inactive,
// preserved exactly).
func (b *BatchGuideline) SnapshotLane(lane int, enc *snapshot.Encoder) {
	l := &b.lanes[lane]
	enc.Float64(l.prevCGM)
	enc.Bool(l.havePrev)
	enc.Float64(l.belowSince)
	enc.Float64(l.aboveSince)
}

// RestoreLane implements snapshot.LaneSnapshotter.
func (b *BatchGuideline) RestoreLane(lane int, dec *snapshot.Decoder) error {
	l := guidelineLane{
		prevCGM:    dec.Float64(),
		havePrev:   dec.Bool(),
		belowSince: dec.Float64(),
		aboveSince: dec.Float64(),
	}
	if err := dec.Err(); err != nil {
		return err
	}
	b.lanes[lane] = l
	return nil
}

// SnapshotLane implements snapshot.LaneSnapshotter. A point-in-time
// classifier holds no evolving state, so the encoding is empty.
func (b *BatchML) SnapshotLane(lane int, enc *snapshot.Encoder) {}

// RestoreLane implements snapshot.LaneSnapshotter.
func (b *BatchML) RestoreLane(lane int, dec *snapshot.Decoder) error { return nil }

// SnapshotLane implements snapshot.LaneSnapshotter: the lane's sliding
// feature window, oldest frame first.
func (b *BatchSequence) SnapshotLane(lane int, enc *snapshot.Encoder) {
	l := &b.lanes[lane]
	enc.Int(l.n)
	for k := 0; k < l.n; k++ {
		for _, v := range l.frames[(l.head+k)%b.window] {
			enc.Float64(v)
		}
	}
}

// RestoreLane implements snapshot.LaneSnapshotter.
func (b *BatchSequence) RestoreLane(lane int, dec *snapshot.Decoder) error {
	n := dec.Count(8 * FeatureDim)
	if err := dec.Err(); err != nil {
		return err
	}
	if n > b.window {
		return fmt.Errorf("monitor: restored window holds %d frames, capacity %d", n, b.window)
	}
	l := &b.lanes[lane]
	l.head = 0
	l.n = n
	for k := 0; k < n; k++ {
		for j := range l.frames[k] {
			l.frames[k][j] = dec.Float64()
		}
	}
	return dec.Err()
}

// SnapshotLane implements snapshot.LaneSnapshotter: the lane's
// monitor-side insulin compartments.
func (b *BatchMPC) SnapshotLane(lane int, enc *snapshot.Encoder) {
	l := &b.lanes[lane]
	enc.Float64(l.isc)
	enc.Float64(l.ip)
	enc.Float64(l.ieff)
}

// RestoreLane implements snapshot.LaneSnapshotter.
func (b *BatchMPC) RestoreLane(lane int, dec *snapshot.Decoder) error {
	l := mpcLane{isc: dec.Float64(), ip: dec.Float64(), ieff: dec.Float64()}
	if err := dec.Err(); err != nil {
		return err
	}
	b.lanes[lane] = l
	return nil
}
