package fleet

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/fault"
)

// Runtime session admission and eviction. A fleet's slot set was a
// run-scoped constant: the matrix was fixed when Run started and the
// only way to change the workload was to restart the world. With
// Config.Admissions the slot set becomes a first-class runtime
// operation on a continuous fleet: an Admissions controller queues
// admit/evict requests, and every AdmitEvery lock-step rounds all
// worker shards rendezvous at an admission gate where the queued
// operations are applied — new sessions start on free lanes, evicted
// sessions retire mid-flight with an EventSessionEvict.
//
// # Determinism contract
//
// Gates fire at fixed global round numbers (multiples of
// Config.AdmitEvery), and every decision taken at a gate — slot
// numbering, capacity rejection, spec validation, eviction membership
// — is a pure function of the fleet's declared state and the sequence
// of operations applied, never of goroutine scheduling or of
// Parallel. Which shard hosts a session affects only where its lane
// lives, not its content: a session's evolution remains a function of
// (seed, slot, patient, scenario, replica). Consequently, for a fixed
// admission schedule (operations pinned to rounds with AdmitAt /
// EvictGroupAt), the sink stream of every tenant group is
// byte-identical at any parallelism level
// (TestFleetAdmissionStreamDeterministicAcrossParallelism, the
// control-plane twin of the static-fleet sink determinism test in
// sink_test.go).
// Operations queued with round 0 (Admit/Evict/EvictGroup) apply at the
// next gate — the serving mode, where "which round exactly" is
// scheduling-dependent but each applied schedule still replays
// deterministically.
//
// # Capacity
//
// MaxSessions bounds the total live slot set. Each shard sizes its
// batched lane banks to MaxSessions so any admitted session can land
// on any shard — admission acceptance depends only on the total live
// count, never on Parallel. Size MaxSessions to the expected peak
// fleet, not to a million: it is a control-plane bound (per-shard bank
// memory scales with it), while the per-run Sessions matrix remains
// the bulk-campaign path.

// AdmitSpec describes one session slot to admit into a running fleet.
type AdmitSpec struct {
	// Group tags the session for filtering and collective eviction —
	// the control plane uses it as the tenant ID. Every event the
	// session emits carries it (Event.Group).
	Group string
	// PatientIdx is the cohort index of the admitted patient.
	PatientIdx int
	// ScenIdx indexes the fleet's declared scenario table
	// (Config.Scenarios) — admitted sessions choose from it. Ignored when
	// Program is set.
	ScenIdx int
	// Program, when non-nil, admits an inline scenario program instead
	// of a table index: the program is validated and compile-checked at
	// the gate against the fleet's Steps/CycleMin, and the session (and
	// its continuous-mode replicas) runs the compiled plan. Registry
	// entries record ScenIdx -1 and the program's canonical text.
	Program *fault.Program
	// Mitigate enables Algorithm 1 mitigation for this session even
	// when Config.Mitigate is off (requires a monitor).
	Mitigate bool
	// Restore, when set, admits a previously captured session instead of
	// a fresh one: the sealed SessionSnapshot bytes (SessionSnapshot.
	// Encode) are validated at the gate and the session resumes its run
	// bit-exactly on a fresh slot. The snapshot header supplies
	// PatientIdx, ScenIdx, Replica, and Mitigate (the fields above are
	// ignored); Group keeps the snapshot's tag unless overridden here.
	// The session's monitor state restores into its lane of the fleet's
	// own monitor (Config.NewBatchMonitor); a one-lane view of the same
	// monitor snapshots to the same bytes.
	Restore []byte
}

// LiveSession is one live slot of a running admission-controlled
// fleet, as recorded by the controller's registry.
type LiveSession struct {
	// Slot is the session's slot index (unique for the fleet's
	// lifetime; slots are never reused).
	Slot int
	// PatientIdx and ScenIdx are the session's coordinates; ScenIdx is
	// -1 for inline-program sessions.
	PatientIdx int
	ScenIdx    int
	// Program is the canonical text of an inline-admitted scenario
	// program ("" for table-indexed sessions).
	Program string
	// Group is the AdmitSpec tag ("" for the initial static slots).
	Group string
}

// Reject records an admission the gate refused, with the reason.
type Reject struct {
	Spec   AdmitSpec
	Reason string
}

// maxRejects bounds the retained rejection log.
const maxRejects = 64

// admissionOp is one queued admission/eviction request, or one queued
// snapshot request (snap non-nil).
type admissionOp struct {
	atRound     int // apply at the first gate whose round >= atRound
	admit       []AdmitSpec
	evictSlots  []int
	evictGroups []string
	snap        *snapshotCollector
}

// Admissions is the runtime admission/eviction controller of a
// continuous fleet. Create one with NewAdmissions, set it on
// Config.Admissions, and call Admit/Evict/EvictGroup while the fleet
// runs; operations are applied at the next admission gate (every
// Config.AdmitEvery lock-step rounds). A controller is bound to
// exactly one Run.
type Admissions struct {
	mu       sync.Mutex
	bound    bool
	nextSlot int
	queue    []admissionOp
	wake     chan struct{} // closed when the queue becomes non-empty

	live    map[int]liveSlot // slot -> coordinates + owning shard
	loads   []int            // per-shard live session counts
	alive   []bool           // shard still participating in the run
	gen     int64            // gates applied so far
	rejects []Reject
	rejectN int64
}

// liveSlot is the registry entry for one live session.
type liveSlot struct {
	spec  spec
	shard int
}

// NewAdmissions creates an unbound admission controller.
func NewAdmissions() *Admissions {
	return &Admissions{live: make(map[int]liveSlot)}
}

// bind attaches the controller to one fleet run: slot numbering starts
// past the static matrix and the registry is seeded with the initial
// slots (round-robin across shards, exactly as runShard deals them).
func (a *Admissions) bind(cfg *Config) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.bound {
		return fmt.Errorf("fleet: Admissions controller already bound to a run")
	}
	a.bound = true
	a.nextSlot = cfg.Sessions
	a.loads = make([]int, cfg.Parallel)
	a.alive = make([]bool, cfg.Parallel)
	for i := range a.alive {
		a.alive[i] = true
	}
	for slot := 0; slot < cfg.Sessions; slot++ {
		shard := slot % cfg.Parallel
		a.live[slot] = liveSlot{spec: cfg.specFor(slot, 0), shard: shard}
		a.loads[shard]++
	}
	if cfg.Restore != nil {
		// Seed the registry from the snapshot: restored sessions keep
		// their slots (shard = slot % Parallel, exactly as runShard deals
		// them) and slot numbering continues where the drained fleet left
		// off. Config validation guarantees Sessions == 0 here.
		snap := cfg.Restore
		if len(snap.Sessions) > cfg.MaxSessions {
			return fmt.Errorf("fleet: restore snapshot holds %d sessions, above MaxSessions %d", len(snap.Sessions), cfg.MaxSessions)
		}
		for i := range snap.Sessions {
			ss := &snap.Sessions[i]
			if ss.Slot < 0 || ss.Slot >= snap.NextSlot {
				return fmt.Errorf("fleet: restore snapshot slot %d outside [0, %d)", ss.Slot, snap.NextSlot)
			}
			if _, dup := a.live[ss.Slot]; dup {
				return fmt.Errorf("fleet: restore snapshot repeats slot %d", ss.Slot)
			}
			if ss.PatientIdx < 0 || ss.PatientIdx >= cfg.Platform.NumPatients {
				return fmt.Errorf("fleet: restore snapshot slot %d: patient index %d outside cohort [0, %d)", ss.Slot, ss.PatientIdx, cfg.Platform.NumPatients)
			}
			if ss.Program == "" && (ss.ScenIdx < 0 || ss.ScenIdx >= len(cfg.Scenarios)) {
				return fmt.Errorf("fleet: restore snapshot slot %d: scenario index %d outside the declared table [0, %d)", ss.Slot, ss.ScenIdx, len(cfg.Scenarios))
			}
			sp, err := restoredSpec(ss)
			if err != nil {
				return fmt.Errorf("fleet: restore snapshot slot %d: %w", ss.Slot, err)
			}
			shard := ss.Slot % cfg.Parallel
			a.live[ss.Slot] = liveSlot{spec: sp, shard: shard}
			a.loads[shard]++
		}
		a.nextSlot = snap.NextSlot
	}
	return nil
}

// enqueue appends one operation and wakes an idle fleet.
func (a *Admissions) enqueue(op admissionOp) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queue = append(a.queue, op)
	if a.wake != nil {
		close(a.wake)
		a.wake = nil
	}
}

// wakeChan returns a channel closed once the queue is non-empty.
// Caller holds mu.
func (a *Admissions) wakeChan() chan struct{} {
	if len(a.queue) > 0 {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if a.wake == nil {
		a.wake = make(chan struct{})
	}
	return a.wake
}

// Admit queues sessions for admission at the next gate.
func (a *Admissions) Admit(specs ...AdmitSpec) { a.AdmitAt(0, specs...) }

// AdmitAt queues sessions for admission at the first gate whose global
// round is >= round — the fixed-schedule form the determinism contract
// is stated over.
func (a *Admissions) AdmitAt(round int, specs ...AdmitSpec) {
	if len(specs) == 0 {
		return
	}
	a.enqueue(admissionOp{atRound: round, admit: specs})
}

// Evict queues slot evictions for the next gate. Unknown or already-
// evicted slots are ignored.
func (a *Admissions) Evict(slots ...int) { a.EvictAt(0, slots...) }

// EvictAt queues slot evictions for the first gate whose global round
// is >= round.
func (a *Admissions) EvictAt(round int, slots ...int) {
	if len(slots) == 0 {
		return
	}
	a.enqueue(admissionOp{atRound: round, evictSlots: slots})
}

// EvictGroup queues eviction of every live session tagged with the
// group for the next gate.
func (a *Admissions) EvictGroup(groups ...string) { a.EvictGroupAt(0, groups...) }

// EvictGroupAt queues group evictions for the first gate whose global
// round is >= round. Eviction applies to sessions live before the
// gate; admissions of the same group applied at the same gate survive.
func (a *Admissions) EvictGroupAt(round int, groups ...string) {
	if len(groups) == 0 {
		return
	}
	a.enqueue(admissionOp{atRound: round, evictGroups: groups})
}

// takeDueLocked removes and returns the queued operations due at the
// given gate round, preserving enqueue order. Caller holds mu.
func (a *Admissions) takeDueLocked(round int) []admissionOp {
	var due []admissionOp
	rest := a.queue[:0]
	for _, op := range a.queue {
		if op.atRound <= round {
			due = append(due, op)
		} else {
			rest = append(rest, op)
		}
	}
	a.queue = rest
	return due
}

// PendingOps reports how many queued operations have not yet been
// applied by a gate. A reconcile loop diffs desired state against
// Live() only when this is zero, so in-flight operations are not
// re-issued.
func (a *Admissions) PendingOps() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// Gen returns how many admission gates have applied so far.
func (a *Admissions) Gen() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gen
}

// Live snapshots the registry of live sessions, sorted by slot.
func (a *Admissions) Live() []LiveSession {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]LiveSession, 0, len(a.live))
	for _, ls := range a.live { //fleetvet:nondeterministic order-independent: entries are sorted by slot before return
		prog := ""
		if ls.spec.program != nil {
			prog = ls.spec.program.Key()
		}
		out = append(out, LiveSession{
			Slot:       ls.spec.index,
			PatientIdx: ls.spec.patientIdx,
			ScenIdx:    ls.spec.scenIdx,
			Program:    prog,
			Group:      ls.spec.group,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// Rejected returns the total rejection count and the most recent
// rejections (bounded).
func (a *Admissions) Rejected() (int64, []Reject) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Reject, len(a.rejects))
	copy(out, a.rejects)
	return a.rejectN, out
}

// rejectLocked records one refused admission. Caller holds mu.
func (a *Admissions) rejectLocked(sp AdmitSpec, reason string) {
	a.rejectN++
	a.rejects = append(a.rejects, Reject{Spec: sp, Reason: reason})
	if len(a.rejects) > maxRejects {
		a.rejects = a.rejects[len(a.rejects)-maxRejects:]
	}
}

// admissionGate is the rendezvous the worker shards reach every
// Config.AdmitEvery rounds. The last arriver applies the due
// operations — assigning admitted sessions to the least-loaded shard
// and resolving group evictions to slot sets — then releases the
// barrier; every shard picks up its assigned starts and the shared
// eviction set on the way out. An idle gate (empty fleet, empty queue)
// parks the whole fleet on the controller's wake channel instead of
// spinning rounds.
type admissionGate struct {
	adm  *Admissions
	cfg  *Config
	done <-chan struct{} // the run context's Done channel

	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	phase   int
	round   int // gate round published by the arrivers

	starts [][]spec             // per-shard sessions to start this phase
	evict  map[int]bool         // slots to evict this phase (shared, read-only after release)
	snaps  []*snapshotCollector // snapshot requests granted this phase (shared, read-only after release)
}

func newAdmissionGate(done <-chan struct{}, cfg *Config) *admissionGate {
	g := &admissionGate{
		adm:     cfg.Admissions,
		cfg:     cfg,
		done:    done,
		parties: cfg.Parallel,
		starts:  make([][]spec, cfg.Parallel),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// rendezvous blocks until every participating shard arrives, applies
// the due operations (last arriver), and returns this shard's sessions
// to start, the shared eviction slot set, and any snapshot collectors
// granted at this gate (serviced by every shard before evictions and
// starts are applied).
func (g *admissionGate) rendezvous(shard, round int) ([]spec, map[int]bool, []*snapshotCollector) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.round = round
	g.arrived++
	if g.arrived == g.parties {
		g.release(true)
	} else {
		ph := g.phase
		for ph == g.phase {
			g.cond.Wait()
		}
	}
	starts := g.starts[shard]
	g.starts[shard] = nil
	return starts, g.evict, g.snaps
}

// leave withdraws a shard from the gate (cancellation or error): its
// live sessions are purged from the registry so capacity frees up and
// no future admission lands on it. If the departure completes the
// barrier, it is released here. Safe to call when no gate is active.
func (g *admissionGate) leave(shard int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.adm
	a.mu.Lock()
	a.alive[shard] = false
	for sl, ls := range a.live { //fleetvet:nondeterministic order-independent: filtering one shard's entries out of the registry
		if ls.shard == shard {
			delete(a.live, sl)
		}
	}
	a.loads[shard] = 0
	a.mu.Unlock()
	g.parties--
	if g.parties > 0 && g.arrived == g.parties {
		// Release without applying: apply may park an idle fleet on the
		// controller's wake channel, which must never block an exiting
		// shard's deferred leave. The queued operations stay queued and
		// apply at the next gate the surviving shards reach.
		g.release(false)
	}
}

// release ends the current gate — applying the due operations first
// when applyOps is set — and wakes every waiting shard. Caller holds
// g.mu.
func (g *admissionGate) release(applyOps bool) {
	if applyOps {
		g.apply()
	} else {
		g.evict = nil
		g.snaps = nil
	}
	g.arrived = 0
	g.phase++
	g.cond.Broadcast()
}

// cancelled reports whether the run context is done.
func (g *admissionGate) cancelled() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// apply drains the due operations and computes this gate's starts and
// evictions. With an empty fleet and an empty queue it parks on the
// controller's wake channel — every other shard is held at the
// barrier, so blocking here idles the whole fleet without spinning
// rounds. Caller holds g.mu.
func (g *admissionGate) apply() {
	a := g.adm
	for {
		a.mu.Lock()
		if g.cancelled() {
			// A cancelled run starts nothing: leave the queue for the
			// post-mortem and release the shards so they observe ctx.Done.
			a.mu.Unlock()
			g.evict = nil
			g.snaps = nil
			return
		}
		ops := a.takeDueLocked(g.round)
		if len(ops) > 0 || len(a.queue) > 0 || len(a.live) > 0 {
			g.applyOps(ops)
			a.mu.Unlock()
			return
		}
		// Empty fleet, empty queue: park until work arrives. Every other
		// shard is quiesced at the barrier, so dropping both locks is safe
		// — nobody but the controller's producers can make progress.
		wake := a.wakeChan()
		a.mu.Unlock()
		g.mu.Unlock()
		select {
		case <-g.done:
		case <-wake:
		}
		g.mu.Lock()
	}
}

// applyOps resolves the due operations: evictions first (over sessions
// live before this gate), then admissions in order, each validated and
// assigned to the least-loaded live shard. Caller holds g.mu and
// a.mu.
func (g *admissionGate) applyOps(ops []admissionOp) {
	a := g.adm
	g.snaps = nil

	// Snapshot requests resolve first. A group snapshot rides along: the
	// shards serialize the group's pre-gate live set and the gate then
	// proceeds normally. A terminal drain preempts the gate: every other
	// due operation goes back on the queue unapplied, nothing starts or
	// evicts, and the shards serialize everything and exit.
	var drain *snapshotCollector
	rest := ops[:0]
	for _, op := range ops {
		if op.snap == nil {
			rest = append(rest, op)
			continue
		}
		col := op.snap
		switch {
		case !col.terminal:
			col.remaining = g.parties
			col.nextSlot = a.nextSlot
			g.snaps = append(g.snaps, col)
		case drain != nil:
			col.resolveErr(fmt.Errorf("fleet: drain already in progress at this gate"))
		default:
			if err := g.drainAlignmentError(); err != nil {
				col.resolveErr(err)
				continue
			}
			drain = col
		}
	}
	ops = rest
	if drain != nil {
		if len(ops) > 0 {
			a.queue = append(append([]admissionOp{}, ops...), a.queue...)
		}
		drain.remaining = g.parties
		drain.nextSlot = a.nextSlot
		g.snaps = append(g.snaps, drain)
		g.evict = nil
		a.gen++
		return
	}

	evict := make(map[int]bool)
	evictGroups := make(map[string]bool)
	for _, op := range ops {
		for _, s := range op.evictSlots {
			evict[s] = true
		}
		for _, gr := range op.evictGroups {
			evictGroups[gr] = true
		}
	}
	if len(evict) > 0 || len(evictGroups) > 0 {
		slots := make([]int, 0, len(a.live))
		for sl := range a.live { //fleetvet:nondeterministic order-independent: slots are sorted before resolving evictions
			slots = append(slots, sl)
		}
		sort.Ints(slots)
		for _, sl := range slots {
			ls := a.live[sl]
			if evict[sl] || evictGroups[ls.spec.group] {
				evict[sl] = true
				a.loads[ls.shard]--
				delete(a.live, sl)
			}
		}
	}
	for _, op := range ops {
		for _, sp := range op.admit {
			reason, snap := g.validateSpec(sp)
			if reason != "" {
				a.rejectLocked(sp, reason)
				continue
			}
			if len(a.live) >= g.cfg.MaxSessions {
				a.rejectLocked(sp, fmt.Sprintf("fleet at MaxSessions capacity (%d live)", len(a.live)))
				continue
			}
			shard := g.leastLoaded()
			if shard < 0 {
				a.rejectLocked(sp, "no live shard to host the session")
				continue
			}
			slot := a.nextSlot
			a.nextSlot++
			spc := spec{
				index:      slot,
				patientIdx: sp.PatientIdx,
				scenIdx:    sp.ScenIdx,
				program:    sp.Program,
				group:      sp.Group,
				mitigate:   sp.Mitigate,
			}
			if sp.Program != nil {
				spc.scenIdx = -1
			}
			if snap != nil {
				// A restored admission resumes the captured session on the
				// fresh slot: the snapshot header wins for every coordinate
				// except the group tag, which the spec may override.
				spc.patientIdx = snap.PatientIdx
				spc.scenIdx = snap.ScenIdx
				spc.replica = snap.Replica
				spc.mitigate = snap.Mitigate
				spc.program = nil
				if snap.Program != "" {
					// validateSpec already proved the text parses.
					prog, err := fault.ParseProgram(snap.Program)
					if err != nil {
						a.rejectLocked(sp, fmt.Sprintf("snapshot program: %v", err))
						a.nextSlot-- // slot was never registered; reuse it
						continue
					}
					spc.program = &prog
					spc.scenIdx = -1
				}
				if sp.Group == "" {
					spc.group = snap.Group
				}
				spc.restore = snap
			}
			a.live[slot] = liveSlot{spec: spc, shard: shard}
			a.loads[shard]++
			g.starts[shard] = append(g.starts[shard], spc)
		}
	}
	a.gen++
	g.evict = evict
}

// drainAlignmentError rejects a terminal drain at a gate round that
// would strand buffered sink events: with sinks attached, a drain must
// land on a round that is a multiple of SinkEpoch, where
// the per-shard buffers are empty and the completion cursors agree (the
// alignment invariant in this file's package comment).
func (g *admissionGate) drainAlignmentError() error {
	cfg := g.cfg
	if len(cfg.Sinks) > 0 && g.round%cfg.SinkEpoch != 0 {
		return fmt.Errorf(
			"%w: gate round %d is not aligned to SinkEpoch %d; schedule DrainAt on a common multiple of AdmitEvery and SinkEpoch",
			ErrDrainMisaligned, g.round, cfg.SinkEpoch)
	}
	return nil
}

// failRestore converts a restore failure at session start into a
// rejected admission: the granted slot is unregistered (slots are never
// reused, so the number is simply burned) and the failure lands in the
// rejection log. The shard keeps running — a bad snapshot must not take
// down the fleet.
func (g *admissionGate) failRestore(shard int, sp spec, err error) {
	a := g.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.live, sp.index)
	a.loads[shard]--
	a.rejectLocked(AdmitSpec{
		Group:      sp.group,
		PatientIdx: sp.patientIdx,
		ScenIdx:    sp.scenIdx,
		Program:    sp.program,
		Mitigate:   sp.mitigate,
	}, fmt.Sprintf("restore failed: %v", err))
}

// validateSpec returns a non-empty rejection reason for an invalid
// admission. For a restore admission it also returns the decoded
// snapshot, whose header supplies the session coordinates.
func (g *admissionGate) validateSpec(sp AdmitSpec) (string, *SessionSnapshot) {
	if sp.Restore != nil {
		snap, err := DecodeSessionSnapshot(sp.Restore)
		if err != nil {
			return err.Error(), nil
		}
		if snap.PatientIdx < 0 || snap.PatientIdx >= g.cfg.Platform.NumPatients {
			return fmt.Sprintf("snapshot patient index %d outside cohort [0, %d)", snap.PatientIdx, g.cfg.Platform.NumPatients), nil
		}
		if snap.Program != "" {
			prog, err := fault.ParseProgram(snap.Program)
			if err != nil {
				return fmt.Sprintf("snapshot program: %v", err), nil
			}
			if _, err := prog.Compile(g.cfg.Steps, g.cfg.CycleMin); err != nil {
				return fmt.Sprintf("snapshot program: %v", err), nil
			}
		} else if snap.ScenIdx < 0 || snap.ScenIdx >= len(g.cfg.Scenarios) {
			return fmt.Sprintf("snapshot scenario index %d outside the declared table [0, %d)", snap.ScenIdx, len(g.cfg.Scenarios)), nil
		}
		return "", snap
	}
	if sp.PatientIdx < 0 || sp.PatientIdx >= g.cfg.Platform.NumPatients {
		return fmt.Sprintf("patient index %d outside cohort [0, %d)", sp.PatientIdx, g.cfg.Platform.NumPatients), nil
	}
	if sp.Program != nil {
		// An inline program must be executable on this fleet's horizon
		// before it takes a slot; Compile revalidates and clips windows.
		if _, err := sp.Program.Compile(g.cfg.Steps, g.cfg.CycleMin); err != nil {
			return fmt.Sprintf("inline program: %v", err), nil
		}
	} else if sp.ScenIdx < 0 || sp.ScenIdx >= len(g.cfg.Scenarios) {
		return fmt.Sprintf("scenario index %d outside the declared table [0, %d)", sp.ScenIdx, len(g.cfg.Scenarios)), nil
	}
	return "", nil
}

// leastLoaded picks the live shard with the fewest sessions (lowest
// index on ties), or -1 when every shard has left. Caller holds a.mu.
func (g *admissionGate) leastLoaded() int {
	a := g.adm
	best := -1
	for s := 0; s < len(a.loads); s++ {
		if !a.alive[s] {
			continue
		}
		if best < 0 || a.loads[s] < a.loads[best] {
			best = s
		}
	}
	return best
}
