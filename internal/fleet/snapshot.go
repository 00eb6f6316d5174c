// Session and fleet checkpointing. A live session serializes to
// versioned bytes at a cycle boundary — loop cursor, trace, controller,
// patient lane, sensor lane, monitor lane, telemetry lane, and the
// exact position of its RNG stream — and restores bit-exactly into a
// fresh fleet (Config.Restore, slot-preserving) or into a running one
// (AdmitSpec.Restore, migration onto a new slot). Whole-fleet snapshots
// are taken through the admission gate: Admissions.DrainAt stops the
// fleet at an epoch-aligned gate and serializes every live session;
// Admissions.SnapshotGroup serializes one tenant's sessions at a gate
// without stopping anything.
//
// # Alignment invariant
//
// A terminal drain must land on a gate round that is a multiple of
// SinkEpoch: at such a round the per-shard sink buffers are empty (the
// epoch barrier at the end of the previous round drained everything in
// continuous mode) and the sink-delivery completion cursor equals
// the engine's completion count. Restoring the snapshot then continues
// the sink stream exactly where the drained run cut it: the
// concatenation of the two runs' epoch-merged sink bytes is identical
// to the uninterrupted run's (the golden differential tests pin this).
// The restored fleet must run the same master Seed so continuous-mode
// replica refills continue the original derived streams.

package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
	"repro/internal/snapshot"
)

// ErrDrainMisaligned reports a terminal drain that reached a gate round
// not aligned to SinkEpoch (see the alignment invariant above). The
// fleet keeps running; the caller may retry, and a later gate — at most
// lcm(AdmitEvery, SinkEpoch) rounds on — is always aligned.
var ErrDrainMisaligned = errors.New("fleet: drain gate not aligned to SinkEpoch")

// countingSource wraps a rand.Source and counts Int63 draws so a
// session's RNG stream position can be checkpointed. It deliberately
// does NOT implement rand.Source64: every math/rand method the fleet
// consumes (Float64, NormFloat64, Uint32, ...) funnels through Int63 on
// a plain Source, so wrapping leaves existing noise streams
// bit-identical to the unwrapped rand.NewSource the fleet used before.
type countingSource struct {
	src rand64Source
	n   uint64
}

// rand64Source is the subset of rand.Source the counter delegates to.
type rand64Source interface {
	Int63() int64
	Seed(seed int64)
}

// Int63 implements rand.Source.
func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

// Seed implements rand.Source, rewinding the draw count with the
// stream.
func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// SessionSnapshot is one live session's checkpoint: the coordinate
// header a control plane routes on, the derived RNG stream position,
// and the opaque component state payload.
type SessionSnapshot struct {
	// Slot is the session's slot index at snapshot time. Config.Restore
	// preserves it; AdmitSpec.Restore assigns a fresh one.
	Slot int
	// PatientIdx and ScenIdx are the session's coordinates in the
	// restoring fleet's cohort and declared scenario table. ScenIdx is
	// -1 for a session running an inline program (Program below).
	PatientIdx int
	ScenIdx    int
	// Program is the canonical text of an inline-admitted scenario
	// program ("" for table-indexed sessions); a restoring fleet parses
	// and recompiles it instead of consulting its scenario table.
	Program string
	// Replica numbers the slot's continuous-mode restarts.
	Replica int
	// Group is the tenant tag the session's events carry.
	Group string
	// Mitigate records a per-session mitigation override
	// (AdmitSpec.Mitigate).
	Mitigate bool
	// Alarmed records whether the session's first-alarm event has
	// already been emitted, so a restored session never re-emits it.
	Alarmed bool
	// Seed is the derived per-session seed the RNG stream was built
	// from, and Draws how many Int63 values the session has consumed —
	// together the exact stream position, independent of the slot the
	// session restores onto.
	Seed  int64
	Draws uint64
	// State is the component payload: stepper (loop cursor, trace,
	// controller, patient), sensor, monitor, and telemetry sections, in
	// that order.
	State []byte
}

// Encode seals the session snapshot into a standalone versioned
// envelope for AdmitSpec.Restore.
func (ss *SessionSnapshot) Encode() []byte {
	enc := snapshot.NewEncoder()
	encodeSessionSnapshot(enc, ss)
	return snapshot.Seal(enc.Payload())
}

// DecodeSessionSnapshot opens and parses a sealed session snapshot.
func DecodeSessionSnapshot(data []byte) (*SessionSnapshot, error) {
	payload, err := snapshot.Open(data)
	if err != nil {
		return nil, fmt.Errorf("fleet: session snapshot: %w", err)
	}
	dec := snapshot.NewDecoder(payload)
	ss := decodeSessionSnapshot(dec)
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("fleet: session snapshot: %w", err)
	}
	return ss, nil
}

func encodeSessionSnapshot(enc *snapshot.Encoder, ss *SessionSnapshot) {
	enc.Int(ss.Slot)
	enc.Int(ss.PatientIdx)
	enc.Int(ss.ScenIdx)
	enc.String(ss.Program)
	enc.Int(ss.Replica)
	enc.String(ss.Group)
	enc.Bool(ss.Mitigate)
	enc.Bool(ss.Alarmed)
	enc.Varint(ss.Seed)
	enc.Uvarint(ss.Draws)
	enc.Bytes(ss.State)
}

func decodeSessionSnapshot(dec *snapshot.Decoder) *SessionSnapshot {
	return &SessionSnapshot{
		Slot:       dec.Int(),
		PatientIdx: dec.Int(),
		ScenIdx:    dec.Int(),
		Program:    dec.String(),
		Replica:    dec.Int(),
		Group:      dec.String(),
		Mitigate:   dec.Bool(),
		Alarmed:    dec.Bool(),
		Seed:       dec.Varint(),
		Draws:      dec.Uvarint(),
		State:      dec.Bytes(),
	}
}

// FleetSnapshot is a whole-fleet (or whole-tenant) checkpoint: the
// completion cursor the sink stream resumes from, the next slot number,
// and every captured session sorted by slot.
type FleetSnapshot struct {
	// Completed is the fleet's completion count at the drain gate; a
	// restoring fleet seeds both its completion counter and the sinks'
	// re-stamp cursor from it.
	Completed int64
	// NextSlot is where the restoring fleet's slot numbering continues.
	NextSlot int
	// Sessions holds the captured sessions, sorted by Slot.
	Sessions []SessionSnapshot
}

// Encode seals the fleet snapshot into a versioned envelope.
func (fs *FleetSnapshot) Encode() []byte {
	enc := snapshot.NewEncoder()
	enc.Varint(fs.Completed)
	enc.Int(fs.NextSlot)
	enc.Int(len(fs.Sessions))
	for i := range fs.Sessions {
		encodeSessionSnapshot(enc, &fs.Sessions[i])
	}
	return snapshot.Seal(enc.Payload())
}

// DecodeFleetSnapshot opens and parses a sealed fleet snapshot,
// failing loudly on corruption or a format-version mismatch.
func DecodeFleetSnapshot(data []byte) (*FleetSnapshot, error) {
	payload, err := snapshot.Open(data)
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot: %w", err)
	}
	dec := snapshot.NewDecoder(payload)
	fs := &FleetSnapshot{
		Completed: dec.Varint(),
		NextSlot:  dec.Int(),
	}
	n := dec.Count(1)
	for i := 0; i < n; i++ {
		ss := decodeSessionSnapshot(dec)
		if dec.Err() != nil {
			break
		}
		fs.Sessions = append(fs.Sessions, *ss)
	}
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("fleet: snapshot: %w", err)
	}
	return fs, nil
}

// DrainResult is the outcome of a DrainAt or SnapshotGroup request.
type DrainResult struct {
	Snapshot *FleetSnapshot
	Err      error
}

// snapshotCollector gathers per-shard session serializations for one
// drain or group-snapshot request and resolves the requester's channel
// when the last shard contributes.
type snapshotCollector struct {
	group    string // "" captures every live session
	terminal bool   // drain: shards exit after contributing

	mu        sync.Mutex
	remaining int
	sessions  []SessionSnapshot
	err       error
	nextSlot  int
	ch        chan DrainResult
}

// resolveErr completes the request with an error (misaligned round,
// serialization failure).
func (c *snapshotCollector) resolveErr(err error) {
	c.ch <- DrainResult{Err: err}
}

// contribute folds one shard's serializations (or its failure) into the
// collector; the last contributor assembles and resolves the snapshot.
func (e *engine) contribute(c *snapshotCollector, snaps []SessionSnapshot, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil && c.err == nil {
		c.err = err
	}
	c.sessions = append(c.sessions, snaps...)
	c.remaining--
	if c.remaining > 0 {
		return
	}
	if c.err != nil {
		c.resolveErr(c.err)
		return
	}
	sort.Slice(c.sessions, func(i, j int) bool { return c.sessions[i].Slot < c.sessions[j].Slot })
	c.ch <- DrainResult{Snapshot: &FleetSnapshot{
		Completed: e.completed.Load(),
		NextSlot:  c.nextSlot,
		Sessions:  c.sessions,
	}}
}

// Drain requests a terminal fleet drain at the next admission gate: see
// DrainAt.
func (a *Admissions) Drain() <-chan DrainResult { return a.DrainAt(0) }

// DrainAt requests a terminal fleet drain at the first admission gate
// whose global round is >= round. At that gate every shard serializes
// its live sessions instead of applying other queued operations (which
// stay queued, unapplied) and exits cleanly; the assembled
// FleetSnapshot arrives on the returned channel and Run returns without
// error. The gate round must be a multiple of Config.SinkEpoch when
// sinks are attached — a misaligned drain resolves the channel
// with an error and the fleet keeps running.
func (a *Admissions) DrainAt(round int) <-chan DrainResult {
	return a.requestSnapshot(round, "", true)
}

// SnapshotGroup captures every live session of one tenant group at the
// next admission gate without disturbing the fleet: the sessions keep
// running, and their serialized state (suitable for AdmitSpec.Restore
// migration) arrives on the returned channel.
func (a *Admissions) SnapshotGroup(group string) <-chan DrainResult {
	return a.SnapshotGroupAt(0, group)
}

// SnapshotGroupAt is SnapshotGroup pinned to the first gate whose
// global round is >= round.
func (a *Admissions) SnapshotGroupAt(round int, group string) <-chan DrainResult {
	return a.requestSnapshot(round, group, false)
}

func (a *Admissions) requestSnapshot(round int, group string, terminal bool) <-chan DrainResult {
	col := &snapshotCollector{
		group:    group,
		terminal: terminal,
		ch:       make(chan DrainResult, 1),
	}
	a.enqueue(admissionOp{atRound: round, snap: col})
	return col.ch
}

// restoredSpec rebuilds a slot spec from a captured session's header,
// parsing an inline program's canonical text back into executable form.
func restoredSpec(ss *SessionSnapshot) (spec, error) {
	sp := spec{
		index:      ss.Slot,
		patientIdx: ss.PatientIdx,
		scenIdx:    ss.ScenIdx,
		replica:    ss.Replica,
		group:      ss.Group,
		mitigate:   ss.Mitigate,
		restore:    ss,
	}
	if ss.Program != "" {
		prog, err := fault.ParseProgram(ss.Program)
		if err != nil {
			return spec{}, fmt.Errorf("snapshot program: %w", err)
		}
		sp.program = &prog
		sp.scenIdx = -1
	}
	return sp, nil
}

// snapshotSession serializes one live session at a cycle boundary. The
// shard-batched banks and monitor are read at the session's lane;
// per-session components are read directly.
func (e *engine) snapshotSession(s *Session, bm monitor.BatchMonitor, batchTelem *scs.BatchStreamSet, batchSensor *sensor.BatchModel) (SessionSnapshot, error) {
	enc := snapshot.NewEncoder()
	if err := s.st.Snapshot(enc); err != nil {
		return SessionSnapshot{}, fmt.Errorf("fleet: session %d: %w", s.Index, err)
	}

	enc.Bool(e.cfg.Sensor != nil)
	if e.cfg.Sensor != nil {
		switch {
		case batchSensor != nil:
			batchSensor.SnapshotLane(s.lane, enc)
		case s.sensorModel != nil:
			s.sensorModel.SnapshotState(enc)
		default:
			return SessionSnapshot{}, fmt.Errorf("fleet: session %d: sensor configured but no model attached", s.Index)
		}
	}

	enc.Bool(bm != nil)
	if bm != nil {
		ls, ok := bm.(snapshot.LaneSnapshotter)
		if !ok {
			return SessionSnapshot{}, fmt.Errorf("fleet: batch monitor %T does not support snapshot", bm)
		}
		ls.SnapshotLane(s.lane, enc)
	}

	enc.Bool(batchTelem != nil)
	if batchTelem != nil {
		batchTelem.SnapshotLane(s.lane, enc)
	}

	progText := ""
	if s.program != nil {
		progText = s.program.Key()
	}
	return SessionSnapshot{
		Slot:       s.Index,
		PatientIdx: s.PatientIdx,
		ScenIdx:    s.scenIdx,
		Program:    progText,
		Replica:    s.Replica,
		Group:      s.group,
		Mitigate:   s.mitigate,
		Alarmed:    s.alarmed,
		Seed:       s.seed,
		Draws:      s.src.n,
		State:      enc.Payload(),
	}, nil
}

// restoreSessionState loads a captured session's component payload into
// a freshly built session on its new lane. On error the session must be
// discarded (the lane's banks are re-reset on next use).
func (e *engine) restoreSessionState(s *Session, ss *SessionSnapshot, bm monitor.BatchMonitor, batchTelem *scs.BatchStreamSet, batchSensor *sensor.BatchModel) error {
	wrap := func(err error) error {
		return fmt.Errorf("fleet: restore session (slot %d from snapshot slot %d): %w", s.Index, ss.Slot, err)
	}
	dec := snapshot.NewDecoder(ss.State)
	if err := s.st.Restore(dec); err != nil {
		return wrap(err)
	}

	hadSensor := dec.Bool()
	if err := dec.Err(); err != nil {
		return wrap(err)
	}
	if hadSensor != (e.cfg.Sensor != nil) {
		return wrap(fmt.Errorf("sensor presence mismatch: snapshot %v, config %v", hadSensor, e.cfg.Sensor != nil))
	}
	if hadSensor {
		var err error
		switch {
		case batchSensor != nil:
			err = batchSensor.RestoreLane(s.lane, dec)
		case s.sensorModel != nil:
			err = s.sensorModel.RestoreState(dec)
		default:
			err = fmt.Errorf("sensor configured but no model attached")
		}
		if err != nil {
			return wrap(fmt.Errorf("sensor: %w", err))
		}
	}

	hadMon := dec.Bool()
	if err := dec.Err(); err != nil {
		return wrap(err)
	}
	if hasMon := bm != nil; hadMon != hasMon {
		return wrap(fmt.Errorf("monitor presence mismatch: snapshot %v, config %v", hadMon, hasMon))
	}
	if hadMon {
		ls, ok := bm.(snapshot.LaneSnapshotter)
		if !ok {
			return wrap(fmt.Errorf("batch monitor %T does not support snapshot", bm))
		}
		if err := ls.RestoreLane(s.lane, dec); err != nil {
			return wrap(fmt.Errorf("monitor: %w", err))
		}
	}

	hadTelem := dec.Bool()
	if err := dec.Err(); err != nil {
		return wrap(err)
	}
	if hasTelem := batchTelem != nil; hadTelem != hasTelem {
		return wrap(fmt.Errorf("telemetry presence mismatch: snapshot %v, config %v", hadTelem, hasTelem))
	}
	if hadTelem {
		if err := batchTelem.RestoreLane(s.lane, dec); err != nil {
			return wrap(fmt.Errorf("telemetry: %w", err))
		}
	}

	if err := dec.Finish(); err != nil {
		return wrap(err)
	}
	s.alarmed = ss.Alarmed
	return nil
}

// shardSnapshots serializes this shard's live sessions matched by the
// collector's group filter (slot order) and contributes the result.
func (e *engine) shardSnapshots(col *snapshotCollector, live []*Session, bm monitor.BatchMonitor, batchTelem *scs.BatchStreamSet, batchSensor *sensor.BatchModel) {
	ordered := make([]*Session, 0, len(live))
	for _, s := range live {
		if col.group == "" || s.group == col.group {
			ordered = append(ordered, s)
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Index < ordered[j].Index })
	var snaps []SessionSnapshot
	var err error
	for _, s := range ordered {
		var ss SessionSnapshot
		if ss, err = e.snapshotSession(s, bm, batchTelem, batchSensor); err != nil {
			break
		}
		snaps = append(snaps, ss)
	}
	e.contribute(col, snaps, err)
}
