// Snapshot/restore of streaming rule-set state, one lane at a time. A
// BatchStreamSet delegates entirely to its stl group: the rule fold and
// fired scratch are recomputed on every push, so the group's operator
// state (plus the lane's sample cursor) is the whole checkpoint. The
// bytes do not depend on the set's width, which is what lets a session
// snapshotted from one lane of a shard restore into any lane of any
// identically built set, a one-lane set included.

package scs

import "repro/internal/snapshot"

var _ snapshot.LaneSnapshotter = (*BatchStreamSet)(nil)

// SnapshotLane implements snapshot.LaneSnapshotter: one lane's rule
// streams.
func (bs *BatchStreamSet) SnapshotLane(lane int, enc *snapshot.Encoder) {
	bs.group.SnapshotLane(lane, enc)
}

// RestoreLane implements snapshot.LaneSnapshotter, accepting bytes from
// SnapshotLane of an identically built set of any width.
func (bs *BatchStreamSet) RestoreLane(lane int, dec *snapshot.Decoder) error {
	if err := bs.group.RestoreLane(lane, dec); err != nil {
		return err
	}
	// bs.n gates Add-after-push and engine rebuild checks; keep it ahead
	// of the restored lane's cursor without ever rewinding it.
	if n := bs.group.LaneLen(lane); n > bs.n {
		bs.n = n
	}
	return nil
}
