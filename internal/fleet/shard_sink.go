package fleet

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// Sink delivery, the engine's only event path. Each worker appends its
// events to a private buffer (no channel, no cross-shard contention),
// and the buffers merge into the sinks in *canonical order*: sorted by
// (Session, Replica, Step, kind rank), with completion counters
// re-stamped and progress events synthesized along the merged order.
// Every component of that key is a pure function of the session's
// coordinates — never of goroutine scheduling — so sink output is
// byte-identical at any parallelism level, the same determinism
// contract the traces carry (the sink determinism tests in
// sink_test.go and shard_sink_test.go).
//
// # Epoch barriers
//
// Every worker shard reaches a generation barrier each
// Config.SinkEpoch completed lock-step rounds. All shards quiesce, the
// last arriver merges the per-worker buffers for the closed epoch into
// the pending pool, and the deliverable part streams into the sinks
// immediately while the other shards wait — so per-worker buffering
// composes with live delivery and bounded memory:
//
//   - Finite runs deliver the *stable prefix* of the canonical order:
//     every pending event whose Session precedes the fleet frontier
//     (the smallest session slot any shard will still emit for). A
//     session below the frontier is fully finalized, so its events can
//     never be preceded by a future event, and the concatenation of
//     epoch deliveries is exactly the run-end canonical merge, chunked
//     — byte-identical at any (Parallel, SinkEpoch), including an
//     epoch longer than the run, the run-end-only special case
//     (TestShardedSinkEpochMergeMatchesRunEnd).
//
//   - Continuous runs drain every closed epoch whole: all slots are
//     live forever and advance in lock-step with the barriers, so the
//     assignment of events to epochs is itself a pure function of the
//     session coordinates (round = Replica*Steps + Step), and each
//     chunk — sorted canonically within itself — is deterministic
//     across parallelism. Buffered memory is bounded by one epoch
//     window per shard instead of the whole run (the continuous soak
//     test in shard_sink_test.go).
//
// # Cancellation
//
// A shard that exits without completing its run (context cancelled, or
// a session build error) abandons its open-epoch buffer, and the
// not-yet-closed epoch is never delivered: cancelled fleets lose the
// un-barriered tail (see Sink and fleet/doc.go for the contract).
// Events already held back from closed epochs (the finite-mode
// stable-prefix residue) still deliver when the run returns.

// kindRank orders a session's events within one step for the canonical
// merge: an alarm precedes the robustness sample of the same cycle
// (matching live emission order), and terminal events sort after the
// per-step stream at equal step numbers. Every declared EventKind must
// have an explicit rank — an unknown kind would otherwise silently get
// a merge position that changes when the enum grows
// (TestKindRankExhaustive guards this).
func kindRank(k EventKind) int {
	switch k {
	case EventSessionStart:
		return 0
	case EventAlarm:
		return 1
	case EventRobustness:
		return 2
	case EventHazard:
		return 3
	case EventSessionDone:
		return 4
	case EventSessionEvict:
		// An eviction is terminal like EventSessionDone but the session
		// never completed; at an equal step it sorts after the per-step
		// stream and after a completion (a slot cannot do both).
		return 5
	case EventProgress:
		// Progress marks are never buffered (workers do not emit them);
		// they are synthesized during delivery. The rank exists only so
		// the exhaustiveness guard covers the whole enum.
		return 6
	default:
		return -1
	}
}

// canonicalLess is the merged delivery order over buffered shard events.
func canonicalLess(a, b *Event) bool {
	if a.Session != b.Session {
		return a.Session < b.Session
	}
	if a.Replica != b.Replica {
		return a.Replica < b.Replica
	}
	if a.Step != b.Step {
		return a.Step < b.Step
	}
	return kindRank(a.Kind) < kindRank(b.Kind)
}

// canonicalMerge puts a pending pool into canonical order. The key
// totally orders the pool — a session emits at most one event per kind
// per (replica, step) — so any correct sort yields the same sequence,
// and the merge exploits the order the engine emits in:
//
//  1. A stable counting pass groups the events by Session: one map
//     lookup per event, the distinct sessions (one per live slot, about
//     a hundred on a serving fleet) sorted by slot, one scatter.
//  2. One insertion pass with canonicalLess fixes the order within each
//     session. A worker emits each session's events in time order,
//     which is canonical order except for EventHazard: it is stamped
//     with the replica's first hazard step when the replica finishes,
//     so it moves back past that replica's later steps. A finite run's
//     held-back residue is already sorted and precedes its sessions'
//     newer events.
//
// So the merge is linear on engine output plus the hazards'
// displacement. The scatter copies each event once and an insertion
// copies only what it shifts, where a comparison sort over 104-byte
// Events spends most of its time swapping them by value. The scratch is
// reused across epochs, so a warm barrier allocates nothing.
type canonicalMerge struct {
	runOf map[int]int32 // session -> its index in count, this merge only
	runs  []sessionRun  // distinct sessions, first-seen order until sorted
	count []int         // per session: event count, then output cursor
	of    []int32       // per input event: its session's index in count
	out   []Event       // scatter target; the input buffer takes its place
}

// sessionRun is one distinct session of a merge and the index of its
// counter.
type sessionRun struct {
	session int
	idx     int32
}

// sort returns evs in canonical order. The result is the merge's
// previous output buffer; evs becomes the next one, so the caller must
// not keep using it.
func (m *canonicalMerge) sort(evs []Event) []Event {
	if len(evs) < 2 {
		return evs
	}
	if m.runOf == nil {
		m.runOf = make(map[int]int32)
	}
	clear(m.runOf)
	m.runs, m.count, m.of = m.runs[:0], m.count[:0], m.of[:0]
	var run int32
	for i := range evs {
		s := evs[i].Session
		if i == 0 || s != evs[i-1].Session {
			var ok bool
			if run, ok = m.runOf[s]; !ok {
				run = int32(len(m.count))
				m.runOf[s] = run
				m.runs = append(m.runs, sessionRun{session: s, idx: run})
				m.count = append(m.count, 0)
			}
		}
		m.count[run]++
		m.of = append(m.of, run)
	}
	slices.SortFunc(m.runs, func(a, b sessionRun) int { return cmp.Compare(a.session, b.session) })
	at := 0
	for _, r := range m.runs {
		n := m.count[r.idx]
		m.count[r.idx] = at
		at += n
	}
	out := slices.Grow(m.out[:0], len(evs))[:len(evs)]
	for i := range evs {
		c := &m.count[m.of[i]]
		out[*c] = evs[i]
		*c++
	}
	for i := 1; i < len(out); i++ {
		if !canonicalLess(&out[i], &out[i-1]) {
			continue
		}
		ev := out[i]
		j := i - 1
		for j > 0 && canonicalLess(&ev, &out[j-1]) {
			j--
		}
		copy(out[j+1:i+1], out[j:i])
		out[j] = ev
	}
	m.out = evs[:0]
	return out
}

// shardedDelivery owns sink delivery for one run: the
// per-worker event buffers, the epoch barrier the worker shards
// rendezvous on, the pending pool of merged-but-not-yet-deliverable
// events, and the re-stamping cursors carried across epochs. All fields
// except bufs are guarded by mu; bufs[shard] is owned by worker shard
// between barriers and only read under mu while every participant is
// quiesced (arrived at the barrier, or left).
type shardedDelivery struct {
	cfg      *Config
	sinkErrs []error

	mu   sync.Mutex
	cond *sync.Cond

	bufs     [][]Event // per-worker open-epoch buffers
	pending  []Event   // merged events held back for canonical order (finite)
	frontier []int     // per-shard smallest session slot still unfinished
	merge    canonicalMerge

	parties int // shards still participating in the barrier
	arrived int
	phase   int  // barrier generation, for spurious-wakeup-safe waiting
	aborted bool // an open epoch was abandoned: stop epoch deliveries

	epoch     int   // closed (delivered) epochs so far
	completed int64 // re-stamp cursor for EventSessionDone, carried across epochs
}

func newShardedDelivery(cfg *Config, sinkErrs []error) *shardedDelivery {
	d := &shardedDelivery{
		cfg:      cfg,
		sinkErrs: sinkErrs,
		bufs:     make([][]Event, cfg.Parallel),
		frontier: make([]int, cfg.Parallel),
		parties:  cfg.Parallel,
	}
	if cfg.Restore != nil {
		// A restored fleet resumes the drained run's completion numbering:
		// EventSessionDone re-stamping continues from the snapshot cursor
		// so the concatenated sink streams count monotonically.
		d.completed = cfg.Restore.Completed
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// buffer appends one event to the shard's open-epoch buffer. No lock:
// the buffer is owned by the worker between barriers, and the barrier
// protocol guarantees no reader runs while any owner is appending.
func (d *shardedDelivery) buffer(shard int, ev Event) {
	d.bufs[shard] = append(d.bufs[shard], ev)
}

// await is the epoch barrier: the shard publishes its frontier (the
// smallest session slot it will still emit events for; MaxInt when
// irrelevant) and blocks until every participating shard has arrived.
// The last arriver closes the epoch — merges all buffers and delivers
// the stable prefix — before releasing the others.
func (d *shardedDelivery) await(shard, frontier int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frontier[shard] = frontier
	d.arrived++
	if d.arrived == d.parties {
		d.completeBarrier()
		return
	}
	ph := d.phase
	for ph == d.phase {
		d.cond.Wait()
	}
}

// leave withdraws a shard from the barrier. A shard that completed its
// run flushes its remaining buffer into the pending pool (flush=true);
// a shard abandoning an open epoch — cancellation or error — drops the
// buffer and poisons epoch delivery, because that epoch can never close
// for every shard (flush=false). Either way, if the departure makes the
// remaining arrivals complete, the barrier is released here.
func (d *shardedDelivery) leave(shard int, flush bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if flush {
		d.pending = append(d.pending, d.bufs[shard]...)
	} else {
		d.aborted = true
	}
	d.bufs[shard] = nil
	d.frontier[shard] = math.MaxInt
	d.parties--
	if d.parties > 0 && d.arrived == d.parties {
		d.completeBarrier()
	}
}

// completeBarrier closes the epoch (unless an open epoch was abandoned)
// and releases every waiting shard. Caller holds mu.
func (d *shardedDelivery) completeBarrier() {
	if d.aborted {
		// The abandoned epoch can never close for every shard, so barriers
		// will deliver nothing more — drop the dead buffers instead of
		// letting surviving shards grow them until the run is cancelled
		// (a continuous fleet may keep stepping long after one shard
		// errors out).
		for i, b := range d.bufs {
			if len(b) > 0 {
				d.bufs[i] = b[:0]
			}
		}
	} else {
		d.closeEpoch()
	}
	d.arrived = 0
	d.phase++
	d.cond.Broadcast()
}

// closeEpoch merges every shard buffer into the pending pool, puts it
// in canonical order, and delivers the stable prefix: everything for a
// continuous fleet (the whole closed epoch), events below the fleet
// frontier for a finite one. Caller holds mu; the workers are all
// quiesced, so reading their buffers is safe.
func (d *shardedDelivery) closeEpoch() {
	for i, b := range d.bufs {
		if len(b) > 0 {
			d.pending = append(d.pending, b...)
			d.bufs[i] = b[:0]
		}
	}
	buffered := len(d.pending)
	cut := buffered
	if !d.cfg.Continuous {
		u := math.MaxInt
		for _, f := range d.frontier {
			if f < u {
				u = f
			}
		}
		// Count the deliverable events before paying for the merge: while
		// the frontier sits below every buffered session (the common case
		// between completion waves) the barrier delivers nothing, and
		// pending can stay unmerged until a barrier that does.
		cut = 0
		for i := range d.pending {
			if d.pending[i].Session < u {
				cut++
			}
		}
	}
	if cut > 0 {
		d.pending = d.merge.sort(d.pending)
		d.deliverPrefix(cut)
	}
	if h := d.cfg.sinkEpochHook; h != nil {
		h(d.epoch, buffered, cut)
	}
	d.epoch++
}

// finish delivers everything still pending once every worker has
// exited: the residue of the last stable prefix plus the final open
// epoch of shards that completed (the whole run when the epoch is
// longer than the run). Open-epoch buffers of shards that left without
// flushing were already dropped.
func (d *shardedDelivery) finish() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, b := range d.bufs {
		d.pending = append(d.pending, b...)
		d.bufs[i] = nil
	}
	d.pending = d.merge.sort(d.pending)
	d.deliverPrefix(len(d.pending))
}

// deliverPrefix replays pending[:cut] into every sink, re-stamping
// EventSessionDone completion counts along the carried cursor and
// synthesizing EventProgress marks, then retains the rest. The first
// Emit error detaches a sink for the rest of the run and is reported
// through sinkErrs.
func (d *shardedDelivery) deliverPrefix(cut int) {
	deliver := func(ev Event) {
		for i, s := range d.cfg.Sinks {
			if d.sinkErrs[i] != nil {
				continue // detached after first error
			}
			d.sinkErrs[i] = s.Emit(ev)
		}
	}
	for k := 0; k < cut; k++ {
		ev := d.pending[k]
		if ev.Kind == EventSessionDone {
			d.completed++
			ev.Completed = d.completed
		}
		deliver(ev)
		if pe := d.cfg.ProgressEvery; ev.Kind == EventSessionDone && pe > 0 && d.completed%int64(pe) == 0 {
			deliver(Event{Kind: EventProgress, Completed: d.completed})
		}
	}
	d.pending = append(d.pending[:0], d.pending[cut:]...)
}
