// Snapshot/restore of streaming operator state, one lane at a time.
// Groups compiled from the same formulas in the same Add order build
// isomorphic hash-consed DAGs (same canonical cache keys, same memo
// policy, same compile recursion) at any width, so walking the
// compiler's memo list in creation order visits corresponding stateful
// nodes in every such group. Only the stateful cores (delay lines,
// extremum deques, Since recursions) are serialized, in canonical
// logical order — ring buffers oldest-first, deques front-to-back —
// which makes a lane's bytes independent of the group's width and of
// ring positions, so a lane restores into any lane of any identically
// built group, and re-encoding a restored lane reproduces the original
// bytes exactly.
//
// Per-push memo caches (seq/sat/rob) are deliberately not serialized:
// a memo only short-circuits while its seq equals the current push's
// sequence number, and every push after a restore uses a strictly
// larger sequence, so stale caches can never be read.

package stl

import (
	"fmt"

	"repro/internal/snapshot"
)

var _ snapshot.LaneSnapshotter = (*BatchStreamGroup)(nil)

// SnapshotLane implements snapshot.LaneSnapshotter: the lane's sample
// count plus its slice of every unique stateful operator, in compile
// order.
func (g *BatchStreamGroup) SnapshotLane(lane int, enc *snapshot.Encoder) {
	enc.Int(g.laneN[lane])
	for _, m := range g.comp.memos {
		switch t := m.inner.(type) {
		case *batchWindowNode:
			snapshotExtremum(enc, t.robC[lane])
			snapshotExtremum(enc, t.satC[lane])
		case *batchSinceNode:
			snapshotSince(enc, t.robC[lane])
			snapshotSince(enc, t.satC[lane])
		}
	}
}

// RestoreLane implements snapshot.LaneSnapshotter, accepting bytes from
// SnapshotLane of an identically built group of any width. Other lanes
// are untouched.
func (g *BatchStreamGroup) RestoreLane(lane int, dec *snapshot.Decoder) error {
	n := dec.Int()
	if dec.Err() == nil && n < 0 {
		return fmt.Errorf("stl: negative restored sample count %d", n)
	}
	for _, m := range g.comp.memos {
		switch t := m.inner.(type) {
		case *batchWindowNode:
			restoreExtremum(dec, t.robC[lane])
			restoreExtremum(dec, t.satC[lane])
		case *batchSinceNode:
			restoreSince(dec, t.robC[lane])
			restoreSince(dec, t.satC[lane])
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	g.laneN[lane] = n
	// The group-global push sequence must stay ahead of the restored
	// lane so the running-group guards (Add rejection, recompile checks)
	// see a live stream; it never rewinds, so memo seq guards stay sound.
	if uint64(n) > g.pushes {
		g.pushes = uint64(n)
	}
	return nil
}

// snapshotDelay writes a delay line as its fill count followed by the
// buffered values oldest-first — the canonical logical order, so the
// encoding is independent of the ring's physical head position.
func snapshotDelay(enc *snapshot.Encoder, d *delayLine) {
	enc.Int(d.n)
	for k := 0; k < d.n; k++ {
		enc.Float64(d.buf[(d.head+k)%len(d.buf)])
	}
}

func restoreDelay(dec *snapshot.Decoder, d *delayLine) {
	n := dec.Count(8)
	if dec.Err() != nil {
		return
	}
	if n > len(d.buf) {
		dec.Fail(fmt.Sprintf("delay line holds %d values, capacity %d", n, len(d.buf)))
		return
	}
	d.head = 0
	d.n = n
	for k := 0; k < n; k++ {
		d.buf[k] = dec.Float64()
	}
}

// snapshotDeque writes a monotonic deque front-to-back as (index,
// value) pairs — again canonical, independent of physical layout.
func snapshotDeque(enc *snapshot.Encoder, q *monoDeque) {
	enc.Int(q.len())
	for k := q.head; k < len(q.idx); k++ {
		enc.Int(q.idx[k])
		enc.Float64(q.val[k])
	}
}

func restoreDeque(dec *snapshot.Decoder, q *monoDeque) {
	n := dec.Count(9)
	if dec.Err() != nil {
		return
	}
	if n > cap(q.idx) {
		dec.Fail(fmt.Sprintf("deque holds %d entries, capacity %d", n, cap(q.idx)))
		return
	}
	q.reset()
	for k := 0; k < n; k++ {
		q.idx = append(q.idx, dec.Int())
		q.val = append(q.val, dec.Float64())
	}
}

func snapshotExtremum(enc *snapshot.Encoder, c *extremumCore) {
	enc.Int(c.i)
	snapshotDelay(enc, c.delay)
	if c.hi < 0 {
		enc.Float64(c.agg)
	} else {
		snapshotDeque(enc, c.dq)
	}
}

func restoreExtremum(dec *snapshot.Decoder, c *extremumCore) {
	i := dec.Int()
	if dec.Err() == nil && i < 0 {
		dec.Fail("negative extremum sample index")
		return
	}
	c.reset()
	c.i = i
	restoreDelay(dec, c.delay)
	if c.hi < 0 {
		c.agg = dec.Float64()
	} else {
		restoreDeque(dec, c.dq)
	}
}

func snapshotSince(enc *snapshot.Encoder, c *sinceCore) {
	enc.Int(c.i)
	snapshotDelay(enc, c.psiDelay)
	if c.phiWin != nil {
		snapshotDeque(enc, c.phiWin)
	}
	if c.hi < 0 {
		enc.Float64(c.z)
	} else {
		snapshotDeque(enc, c.cand)
	}
}

func restoreSince(dec *snapshot.Decoder, c *sinceCore) {
	i := dec.Int()
	if dec.Err() == nil && i < 0 {
		dec.Fail("negative since sample index")
		return
	}
	c.reset()
	c.i = i
	restoreDelay(dec, c.psiDelay)
	if c.phiWin != nil {
		restoreDeque(dec, c.phiWin)
	}
	if c.hi < 0 {
		c.z = dec.Float64()
	} else {
		restoreDeque(dec, c.cand)
	}
}
