package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/closedloop"
	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TelemetryConfig attaches streaming STL hazard telemetry to every
// session: each control cycle yields an EventRobustness carrying the
// minimum STL robustness across the rule set plus the signed rule
// margin and its attribution, delivered through Config.Sinks.
//
// By default every worker shard evaluates its whole live window through
// one shard-batched scs.BatchStreamSet — a single struct-of-arrays push
// per cycle, bit-identical per lane to replaying the session's trace
// through a dedicated one-lane set (the reference the differential
// tests compare against). With FromMonitor the verdicts instead come
// from the shard monitor's own single streaming evaluation at the
// session's lane, so a fleet serving the streaming CAWT/CAWOT pays for
// exactly one rule evaluation per cycle.
type TelemetryConfig struct {
	// Rules is the Safety Context Specification to stream; nil selects
	// the paper's Table I. Ignored with FromMonitor.
	Rules []scs.Rule
	// Thresholds maps rule IDs to β values; nil selects the rules'
	// defaults (the CAWOT thresholds). Ignored with FromMonitor.
	Thresholds scs.Thresholds
	// Params carries the shared evaluation constants. Ignored with
	// FromMonitor.
	Params scs.Params
	// Every emits a robustness event every k cycles per session
	// (default 1: every cycle).
	Every int
	// FromMonitor emits the shard monitor's own streaming verdict at
	// each session's lane instead of attaching a separate telemetry rule
	// set — the one-evaluation invariant for serving fleets. Requires
	// NewBatchMonitor building lane-margin monitors
	// (monitor.BatchContextAware).
	FromMonitor bool
}

// laneMarginMonitor is the capability FromMonitor telemetry needs: a
// BatchMonitor exposing each lane's full streaming verdict for the
// last step. monitor.BatchContextAware implements it.
type laneMarginMonitor interface {
	StreamVerdictLane(lane int) (scs.StreamVerdict, bool)
}

// Platform couples a patient cohort with its controller. It is
// structurally identical to experiment.Platform so the campaign layer
// converts with a plain type conversion (fleet cannot import experiment:
// experiment delegates to fleet).
type Platform struct {
	Name        string
	NumPatients int
	// NewPatient builds cohort patient idx.
	NewPatient func(idx int) (closedloop.Patient, error)
	// NewBatchPatient, when non-nil, builds a struct-of-arrays bank of
	// lanes patients and enables shard-batched physiology/sensor stepping:
	// each worker advances its whole live window's ODE state through one
	// batched RK4 call per round, bit-identical per lane to the scalar
	// NewPatient path — the path a Platform without NewBatchPatient
	// runs, and the reference the stepping differential tests compare
	// against.
	NewBatchPatient func(lanes int) (sim.BatchPatient, error)
	// NewController builds the platform's controller for a patient with
	// the given basal rate.
	NewController func(basalUPerH float64) (control.Controller, error)
}

// Config describes one fleet run.
type Config struct {
	Platform Platform
	// Patients selects cohort indices; nil means the whole cohort.
	Patients []int
	// Scenarios is the fleet's scenario-program table; nil means the full
	// 882-per-patient campaign compiled through the program IR. Every
	// program is validated and compiled once, before any session starts.
	Scenarios []fault.Program
	// Sessions is the number of concurrent session slots. Zero means one
	// per patient x scenario pair; larger values wrap around the matrix
	// with fresh RNG replicas.
	Sessions int
	// Steps per session (default 150 five-minute cycles).
	Steps int
	// CycleMin is the control-cycle length (default 5 minutes).
	CycleMin float64
	// Parallel bounds worker shards (default NumCPU). Sessions are
	// sharded round-robin; each shard is owned by one goroutine.
	Parallel int
	// MaxLivePerShard caps how many of a shard's sessions are resident
	// and interleaved at once (default 128); remaining slots queue until
	// a live session completes, bounding memory on full-matrix
	// campaigns. It also sets the batched-inference width. Continuous
	// mode ignores the cap: Sessions *is* the requested live fleet size.
	MaxLivePerShard int
	// Seed is the master seed: session i's RNG stream is derived from
	// (Seed, patient, scenario, replica), never from scheduling.
	Seed int64
	// Sensor optionally attaches a CGM error model per session, driven
	// by the session RNG. Nil reads the clean CGM.
	Sensor *sensor.Config
	// NewBatchMonitor optionally builds the safety monitor, one batched
	// monitor per shard: the shard evaluates all its sessions'
	// observations in a single call per cycle, each session on its own
	// lane. Every session shares its parameters; a per-session monitor
	// is a one-lane batch.
	NewBatchMonitor func() (monitor.BatchMonitor, error)
	// Mitigate enables Algorithm 1 when a monitor is attached.
	Mitigate bool
	// Mitigation tunes the enabled mitigation (margin scaling, corrective
	// ceiling); the Enabled flag itself is owned by Mitigate.
	Mitigation closedloop.MitigationConfig
	// DiscardTraces recycles completed traces through the buffer pool
	// after summarizing them into Result counters and events, instead of
	// retaining them. Continuous mode forces this on.
	DiscardTraces bool
	// Continuous restarts each completed session with a fresh replica
	// RNG stream until the context is cancelled (run-forever serving
	// mode). The context deadline/cancellation is the normal way to stop
	// a continuous fleet and is not reported as an error.
	Continuous bool
	// Admissions attaches a runtime admission/eviction controller
	// (NewAdmissions): the fleet grows and shrinks its live slot set at
	// admission gates every AdmitEvery lock-step rounds (see
	// admission.go for the protocol and determinism contract). Requires
	// Continuous and MaxSessions; Sessions then defaults to zero (start
	// empty) instead of the full matrix, and an explicit Scenarios table
	// declares what admitted sessions may run.
	Admissions *Admissions
	// MaxSessions bounds the total live slot set of an
	// admission-controlled fleet; admissions beyond it are rejected (not
	// queued). Each shard sizes its batched lane banks to MaxSessions so
	// acceptance never depends on Parallel. Required with Admissions.
	MaxSessions int
	// AdmitEvery is the admission-gate period in lock-step rounds
	// (default 16). Queued admissions/evictions apply only at gate
	// rounds, which is what keeps runtime fleet-shape changes
	// deterministic.
	AdmitEvery int
	// Restore seeds the fleet from a drained snapshot instead of a
	// static slot set: every captured session resumes on its original
	// slot at its exact cycle, the completion cursor continues, and —
	// run with the same master Seed and scenario table — the sink stream
	// continues byte-identically where the drained run cut it (see
	// snapshot.go). Requires Admissions; Sessions must stay zero.
	Restore *FleetSnapshot
	// Telemetry optionally streams per-cycle STL robustness margins for
	// every session as EventRobustness events. Requires Sinks.
	Telemetry *TelemetryConfig
	// Sinks optionally receive the event stream, the fleet's only event
	// output. Workers append events to private per-shard buffers — no
	// channel, no cross-shard contention — and the buffers merge into the
	// sinks in canonical order (see Sink and shard_sink.go), so the
	// delivered stream is a pure function of the session coordinates:
	// byte-identical at any parallelism level, like traces. Sinks are
	// flushed when Run returns.
	Sinks []Sink
	// SinkEpoch drains the per-shard sink buffers at an epoch barrier
	// every SinkEpoch completed lock-step rounds (default 64): all shards
	// quiesce, the closed epoch merges in canonical order, and the
	// deliverable prefix streams to the sinks immediately, with
	// completion counts and progress marks re-stamped incrementally
	// across epochs. Delivery is live for finite and continuous runs
	// alike, and buffers hold at most one epoch window plus, in finite
	// runs, the events of sessions still in flight. For finite runs the
	// concatenation of epoch merges is byte-identical to a single run-end
	// merge (an epoch longer than the run) at any (Parallel, SinkEpoch).
	SinkEpoch int
	// sinkEpochHook, when set (tests only), observes each closed epoch:
	// the epoch index, how many events were buffered at the barrier, and
	// how many of them were delivered.
	sinkEpochHook func(epoch, buffered, delivered int)
	// ProgressEvery emits an EventProgress every k completed sessions
	// (default 0: no progress events).
	ProgressEvery int

	// plans caches the compiled form of Scenarios, one *fault.Plan per
	// program, built by withDefaults once Steps/CycleMin are known.
	plans []*fault.Plan
}

// Validate surfaces contradictory configurations as errors without
// normalizing anything — the checks Run applies before filling
// defaults, exposed so a control plane can reject a bad declared spec
// up front (fleetd turns these into 400s) instead of discovering the
// contradiction when the fleet starts.
func (c Config) Validate() error {
	if c.Platform.NewPatient == nil || c.Platform.NewController == nil {
		return fmt.Errorf("fleet: incomplete platform")
	}
	if c.Sessions < 0 {
		return fmt.Errorf("fleet: negative Sessions %d", c.Sessions)
	}
	if c.Steps < 0 {
		return fmt.Errorf("fleet: negative Steps %d", c.Steps)
	}
	if c.CycleMin < 0 {
		return fmt.Errorf("fleet: negative CycleMin %v", c.CycleMin)
	}
	if c.Parallel < 0 {
		return fmt.Errorf("fleet: negative Parallel %d", c.Parallel)
	}
	if c.MaxLivePerShard < 0 {
		return fmt.Errorf("fleet: negative MaxLivePerShard %d", c.MaxLivePerShard)
	}
	if c.ProgressEvery < 0 {
		return fmt.Errorf("fleet: negative ProgressEvery %d", c.ProgressEvery)
	}
	// Duplicate entries in either axis of the patient x scenario matrix
	// would run indistinguishable sessions on distinct slots — almost
	// always a config bug (a tenant admitting the same pair twice), and
	// one that silently skews completion counts. Reject them up front.
	patSeen := make(map[int]int, len(c.Patients))
	for i, p := range c.Patients {
		if j, dup := patSeen[p]; dup {
			return fmt.Errorf("fleet: duplicate patient %d at Patients[%d] and [%d]", p, j, i)
		}
		patSeen[p] = i
	}
	progSeen := make(map[string]int, len(c.Scenarios))
	for i, p := range c.Scenarios {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("fleet: Scenarios[%d]: %w", i, err)
		}
		if j, dup := progSeen[p.Key()]; dup {
			return fmt.Errorf("fleet: duplicate scenario program %q at Scenarios[%d] and [%d]", p.Name, j, i)
		}
		progSeen[p.Key()] = i
	}
	if c.SinkEpoch < 0 {
		return fmt.Errorf("fleet: negative SinkEpoch %d", c.SinkEpoch)
	}
	if c.Continuous && len(c.Scenarios) == 0 {
		// A serving fleet runs its scenario table forever; defaulting to
		// the full 882-scenario campaign is never what a continuous
		// deployment meant — declare the table explicitly.
		return fmt.Errorf("fleet: Continuous requires an explicit Scenarios table")
	}
	if c.Telemetry != nil {
		if len(c.Sinks) == 0 {
			return fmt.Errorf("fleet: Telemetry requires Sinks")
		}
		if c.Telemetry.FromMonitor && c.NewBatchMonitor == nil {
			return fmt.Errorf("fleet: Telemetry.FromMonitor requires NewBatchMonitor")
		}
	}
	for i, s := range c.Sinks {
		if s == nil {
			return fmt.Errorf("fleet: nil sink at index %d", i)
		}
	}
	if c.Admissions != nil {
		if !c.Continuous {
			return fmt.Errorf("fleet: Admissions requires Continuous")
		}
		if c.MaxSessions <= 0 {
			return fmt.Errorf("fleet: Admissions requires positive MaxSessions, got %d", c.MaxSessions)
		}
		if c.MaxSessions < c.Sessions {
			return fmt.Errorf("fleet: MaxSessions %d below the static Sessions %d", c.MaxSessions, c.Sessions)
		}
	} else {
		if c.MaxSessions != 0 {
			return fmt.Errorf("fleet: MaxSessions requires Admissions")
		}
		if c.AdmitEvery != 0 {
			return fmt.Errorf("fleet: AdmitEvery requires Admissions")
		}
	}
	if c.AdmitEvery < 0 {
		return fmt.Errorf("fleet: negative AdmitEvery %d", c.AdmitEvery)
	}
	if c.Restore != nil {
		if c.Admissions == nil {
			return fmt.Errorf("fleet: Restore requires Admissions")
		}
		if c.Sessions != 0 {
			return fmt.Errorf("fleet: Restore replaces the static slot set; leave Sessions zero")
		}
	}
	return nil
}

func (c Config) withDefaults() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.SinkEpoch == 0 {
		c.SinkEpoch = 64
	}
	if len(c.Patients) == 0 {
		c.Patients = make([]int, c.Platform.NumPatients)
		for i := range c.Patients {
			c.Patients[i] = i
		}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = fault.CampaignPrograms(nil)
	}
	if c.Sessions <= 0 && c.Admissions == nil {
		// An admission-controlled fleet starts with exactly the declared
		// static slots (possibly none); only batch runs default to the
		// full matrix.
		c.Sessions = len(c.Patients) * len(c.Scenarios)
	}
	if c.Steps == 0 {
		c.Steps = 150
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	switch {
	case c.Admissions != nil:
		// Shards outlive any static slot set; bound them by the fleet
		// capacity instead.
		if c.Parallel > c.MaxSessions {
			c.Parallel = c.MaxSessions
		}
		if c.AdmitEvery == 0 {
			c.AdmitEvery = 16
		}
	case c.Parallel > c.Sessions:
		c.Parallel = c.Sessions
	}
	if c.MaxLivePerShard <= 0 {
		c.MaxLivePerShard = 128
	}
	if c.Continuous {
		c.DiscardTraces = true
	}
	if c.CycleMin == 0 {
		c.CycleMin = 5
	}
	if c.Telemetry != nil {
		t := *c.Telemetry // defaults must not mutate the caller's config
		if len(t.Rules) == 0 {
			t.Rules = scs.TableI()
		}
		if t.Every <= 0 {
			t.Every = 1
		}
		c.Telemetry = &t
	}
	// Compile the program table once, now that the loop horizon is known;
	// every session indexing Scenarios shares these plans.
	c.plans = make([]*fault.Plan, len(c.Scenarios))
	for i := range c.Scenarios {
		pl, err := c.Scenarios[i].Compile(c.Steps, c.CycleMin)
		if err != nil {
			return c, fmt.Errorf("fleet: Scenarios[%d] (%s): %w", i, c.Scenarios[i].Name, err)
		}
		c.plans[i] = pl
	}
	return c, nil
}

// spec pins one session slot to its patient/scenario/replica
// coordinates, plus — for admitted sessions — the tenant group tag and
// the per-session mitigation override from the AdmitSpec.
type spec struct {
	index      int // slot index: result slice position
	patientIdx int
	scenIdx    int // index into the scenario table; -1 with program set
	replica    int
	// program, when non-nil, is an inline scenario program
	// (AdmitSpec.Program) the session runs instead of a table entry; it
	// compiles at session start and rides along into replica refills.
	program *fault.Program

	group    string
	mitigate bool
	// restore, when non-nil, resumes the slot from a captured session
	// instead of starting it fresh (Config.Restore or AdmitSpec.Restore).
	restore *SessionSnapshot
}

func (c *Config) specFor(slot, replica int) spec {
	n := len(c.Scenarios)
	matrix := len(c.Patients) * n
	rem := slot % matrix
	return spec{
		index:      slot,
		patientIdx: c.Patients[rem/n],
		scenIdx:    rem % n,
		replica:    slot/matrix + replica,
	}
}

// Result summarizes a fleet run.
type Result struct {
	// Traces holds one labeled trace per session slot in deterministic
	// order (patients outer, scenarios inner, then replicas). Nil when
	// DiscardTraces is set.
	Traces []*trace.Trace
	// Sessions is the number of session slots.
	Sessions int
	// Completed counts sessions run to completion (> Sessions in
	// continuous mode).
	Completed int64
	// Steps counts control cycles executed across all sessions.
	Steps int64
	// Hazardous counts completed sessions whose trace carries a hazard
	// label; Alarmed counts sessions whose monitor raised an alarm.
	Hazardous int64
	Alarmed   int64
}

// Run executes the fleet until every session completes (or forever, in
// continuous mode) and returns the aggregate result. Cancelling the
// context stops a finite run with the context's error; for a continuous
// fleet cancellation is the normal shutdown path and returns nil.
// Registered sinks receive every closed epoch and are flushed before Run
// returns; the first Emit error per sink (which detaches that sink) and
// any flush errors surface as the returned error once simulation has
// completed.
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	eng := &engine{ctx: ctx, cfg: cfg, pool: newBufferPool(cfg.Steps)}
	if cfg.Restore != nil {
		// The completion cursor continues from the drained run, so
		// EventSessionDone re-stamping and Result.Completed count from
		// where the snapshot cut.
		eng.completed.Store(cfg.Restore.Completed)
	}
	if !cfg.DiscardTraces {
		eng.traces = make([]*trace.Trace, cfg.Sessions)
	}
	eng.errs = make([]error, cfg.Parallel)
	if cfg.Admissions != nil {
		if err := cfg.Admissions.bind(&eng.cfg); err != nil {
			return Result{}, err
		}
		eng.gate = newAdmissionGate(ctx.Done(), &eng.cfg)
	}

	// Sink delivery: each worker buffers its own events, and the buffers
	// merge into the sinks in canonical order — at every SinkEpoch
	// barrier, and once more when the workers exit.
	sinkErrs := make([]error, len(cfg.Sinks))
	if len(cfg.Sinks) > 0 {
		eng.sinks = newShardedDelivery(&eng.cfg, sinkErrs)
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallel; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			eng.runShard(shard)
		}(w)
	}
	wg.Wait()

	if eng.sinks != nil {
		eng.sinks.finish()
	}
	var flushErrs []error
	for _, s := range cfg.Sinks {
		flushErrs = append(flushErrs, s.Flush())
	}

	for _, err := range eng.errs {
		if err != nil {
			return Result{}, err
		}
	}
	if err := ctx.Err(); err != nil && !cfg.Continuous {
		return Result{}, fmt.Errorf("fleet: run cancelled: %w", err)
	}
	res := Result{
		Traces:    eng.traces,
		Sessions:  cfg.Sessions,
		Completed: eng.completed.Load(),
		Steps:     eng.steps.Load(),
		Hazardous: eng.hazardous.Load(),
		Alarmed:   eng.alarmed.Load(),
	}
	return res, errors.Join(errors.Join(sinkErrs...), errors.Join(flushErrs...))
}

// engine is the shared state of one fleet run. Workers touch disjoint
// trace slots and sink buffers and communicate only through the atomic
// counters and the epoch and admission barriers, so the whole run is
// data-race free by construction.
type engine struct {
	ctx    context.Context
	cfg    Config
	pool   *bufferPool
	traces []*trace.Trace
	errs   []error
	sinks  *shardedDelivery // per-worker sink buffers + epoch barrier (Config.Sinks)
	gate   *admissionGate   // runtime admission/eviction barrier (Config.Admissions)

	steps     atomic.Int64
	completed atomic.Int64
	hazardous atomic.Int64
	alarmed   atomic.Int64
}

// emit appends an event from one worker shard to that shard's sink
// buffer; the canonical merge delivers it (shard_sink.go). Without
// sinks there is nothing to emit to.
func (e *engine) emit(shard int, ev Event) {
	if e.sinks != nil {
		e.sinks.buffer(shard, ev)
	}
}

// runShard owns sessions slot ≡ shard (mod Parallel), stepping its live
// window in lock-step rounds so a batched monitor can serve the whole
// window with one inference call per cycle. At most MaxLivePerShard
// sessions are resident at once; queued slots start as live ones
// complete, reusing their lane (and its recycled buffers).
func (e *engine) runShard(shard int) {
	cfg := &e.cfg
	cleanExit := false
	if e.sinks != nil {
		// A shard leaving the run withdraws from the epoch barrier so the
		// others never wait on it; a clean exit flushes its remaining
		// buffer, an aborted one (cancellation, error) drops the open
		// epoch — see shard_sink.go for the cancellation contract.
		defer func() { e.sinks.leave(shard, cleanExit) }()
	}
	if e.gate != nil {
		// A departing shard withdraws from the admission gate too: its
		// registry entries purge (capacity frees up), no future admission
		// lands on it, and a gate it would have completed releases.
		defer e.gate.leave(shard)
	}
	var slots []int
	for slot := shard; slot < cfg.Sessions; slot += cfg.Parallel {
		slots = append(slots, slot)
	}
	window := len(slots)
	if !cfg.Continuous && window > cfg.MaxLivePerShard {
		window = cfg.MaxLivePerShard
	}
	// capLanes is how many batched-bank lanes the shard owns. An
	// admission-controlled shard sizes them to the whole fleet bound so
	// admission acceptance depends only on the total live count — never
	// on Parallel or on which shard hosts the session; a fixed fleet
	// sizes exactly its live window.
	capLanes := window
	if e.gate != nil {
		capLanes = cfg.MaxSessions
	}

	// Shard-batched physiology: the whole live window's ODE state lives
	// in one struct-of-arrays bank advanced by a single batched RK4 call
	// per round, with a matching per-lane sensor bank when a CGM error
	// model is attached. Bit-identical per lane to the scalar path a
	// platform without NewBatchPatient runs.
	var batchPat sim.BatchPatient
	var batchSensor *sensor.BatchModel
	if cfg.Platform.NewBatchPatient != nil {
		var err error
		if batchPat, err = cfg.Platform.NewBatchPatient(capLanes); err != nil {
			e.errs[shard] = fmt.Errorf("fleet: shard %d batch patient: %w", shard, err)
			return
		}
		if cfg.Sensor != nil {
			if batchSensor, err = sensor.NewBatchModel(capLanes); err != nil {
				e.errs[shard] = fmt.Errorf("fleet: shard %d batch sensor: %w", shard, err)
				return
			}
		}
	}

	var bm monitor.BatchMonitor
	var laneMargins laneMarginMonitor
	if cfg.NewBatchMonitor != nil {
		var err error
		if bm, err = cfg.NewBatchMonitor(); err != nil {
			e.errs[shard] = fmt.Errorf("fleet: shard %d batch monitor: %w", shard, err)
			return
		}
		bm.ResetLanes(capLanes)
		if t := cfg.Telemetry; t != nil && t.FromMonitor {
			lm, ok := bm.(laneMarginMonitor)
			if !ok {
				e.errs[shard] = fmt.Errorf(
					"fleet: Telemetry.FromMonitor requires a lane-margin batch monitor, got %T", bm)
				return
			}
			laneMargins = lm
		}
	}

	// Shard-batched telemetry: the whole live window's rule streams
	// advance in one struct-of-arrays push per cycle, bit-identical per
	// lane to a one-lane scs.BatchStreamSet replaying the session's
	// trace.
	var batchTelem *scs.BatchStreamSet
	var telemSamples []trace.Sample
	var telemStates []scs.State
	var telemLanes []int
	var telemVerdicts []scs.StreamVerdict
	if cfg.Telemetry != nil {
		telemVerdicts = make([]scs.StreamVerdict, capLanes)
	}
	if t := cfg.Telemetry; t != nil && !t.FromMonitor {
		var err error
		batchTelem, err = scs.NewBatchStreamSet(t.Rules, t.Thresholds, t.Params, cfg.CycleMin, capLanes)
		if err != nil {
			e.errs[shard] = fmt.Errorf("fleet: shard %d telemetry: %w", shard, err)
			return
		}
		telemSamples = make([]trace.Sample, 0, capLanes)
		telemStates = make([]scs.State, 0, capLanes)
		telemLanes = make([]int, 0, capLanes)
	}

	// laneUsed tracks the free lanes of an admission-controlled shard;
	// admitted sessions take the lowest free lane. (Fixed fleets reuse a
	// retiring session's lane directly and never consult it.)
	laneUsed := make([]bool, capLanes)
	freeLane := func() int {
		for i, u := range laneUsed {
			if !u {
				return i
			}
		}
		return -1
	}
	next := 0 // next queued slot
	start := func(sp spec, lane int) (*Session, error) {
		s, err := e.newSession(sp, lane, batchPat, batchSensor)
		if err != nil {
			return nil, err
		}
		if sp.restore != nil {
			// A restored session resumes mid-flight: load every component's
			// captured state onto the fresh lane and emit no start event —
			// its original admission already did.
			if err := e.restoreSessionState(s, sp.restore, bm, batchTelem, batchSensor); err != nil {
				return nil, err
			}
		}
		laneUsed[lane] = true
		if sp.restore == nil {
			e.emit(shard, Event{Kind: EventSessionStart, Session: s.Index, PatientIdx: s.PatientIdx, Replica: s.Replica, Group: s.group})
		}
		return s, nil
	}
	live := make([]*Session, 0, window)
	if cfg.Restore != nil {
		// Restored deal: this shard resumes the snapshot sessions whose
		// slot maps to it, lanes assigned in slot order. A restore failure
		// here is fatal — a fleet-level restore must be all-or-nothing.
		for i := range cfg.Restore.Sessions {
			ss := &cfg.Restore.Sessions[i]
			if ss.Slot%cfg.Parallel != shard {
				continue
			}
			lane := freeLane()
			if lane < 0 {
				e.errs[shard] = fmt.Errorf("fleet: shard %d has no free lane for restored session %d", shard, ss.Slot)
				return
			}
			sp, err := restoredSpec(ss)
			if err != nil {
				e.errs[shard] = fmt.Errorf("fleet: restore slot %d: %w", ss.Slot, err)
				return
			}
			s, err := start(sp, lane)
			if err != nil {
				e.errs[shard] = err
				return
			}
			live = append(live, s)
		}
	}
	for lane := 0; lane < window; lane++ {
		s, err := start(cfg.specFor(slots[next], 0), lane)
		if err != nil {
			e.errs[shard] = err
			return
		}
		next++
		live = append(live, s)
	}

	// Per-round scratch for the batched paths.
	lanes := make([]int, 0, capLanes)
	obs := make([]closedloop.Observation, 0, capLanes)
	verdicts := make([]closedloop.Verdict, capLanes)
	var cleanCGM, sensedCGM, tMins, delivered, carbs []float64
	if batchPat != nil {
		sensedCGM = make([]float64, capLanes)
		delivered = make([]float64, capLanes)
		carbs = make([]float64, capLanes)
		if batchSensor != nil {
			cleanCGM = make([]float64, 0, capLanes)
			tMins = make([]float64, 0, capLanes)
		}
	}

	round := 0  // global lock-step round: the shared clock admission gates key on
	rounds := 0 // completed lock-step rounds since the last epoch barrier
	for len(live) > 0 || e.gate != nil {
		if e.gate != nil && round%cfg.AdmitEvery == 0 {
			// Admission gate: all shards rendezvous, the queued operations
			// apply, and this shard picks up its assigned starts plus the
			// fleet-wide eviction set. Gates fire at fixed global rounds, so
			// fleet-shape changes are lock-step and — for a fixed schedule —
			// deterministic at any parallelism (admission.go).
			starts, evict, snaps := e.gate.rendezvous(shard, round)
			terminal := false
			for _, col := range snaps {
				// Snapshot collectors see the pre-gate live set: a group
				// snapshot captures the tenant as it ran into this gate, and
				// a terminal drain captures everything before exiting.
				e.shardSnapshots(col, live, bm, batchTelem, batchSensor)
				terminal = terminal || col.terminal
			}
			if terminal {
				// Drained: the fleet stops here by design, so this is a clean
				// exit — the sink epoch buffers are empty at an aligned drain
				// gate (the alignment invariant in snapshot.go).
				cleanExit = true
				return
			}
			for i := len(live) - 1; i >= 0; i-- {
				s := live[i]
				if !evict[s.Index] {
					continue
				}
				e.emit(shard, Event{
					Kind: EventSessionEvict, Session: s.Index, PatientIdx: s.PatientIdx,
					Replica: s.Replica, Group: s.group, Step: s.StepIndex(),
				})
				e.pool.put(s.Finish().Samples)
				laneUsed[s.lane] = false
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for _, sp := range starts {
				lane := freeLane()
				if lane < 0 {
					// Unreachable while the gate's capacity check holds (lanes
					// are sized to MaxSessions); fail loudly rather than step a
					// corrupt bank.
					e.errs[shard] = fmt.Errorf("fleet: shard %d has no free lane for admitted session %d", shard, sp.index)
					return
				}
				if bm != nil {
					bm.ResetLane(lane)
				}
				if batchTelem != nil {
					batchTelem.ResetLane(lane)
				}
				s, err := start(sp, lane)
				if err != nil {
					if sp.restore != nil {
						// A bad session snapshot rejects that admission, not
						// the fleet: unregister the slot (the lane was never
						// marked used and its banks re-reset on next use).
						e.gate.failRestore(shard, sp, err)
						continue
					}
					e.errs[shard] = err
					return
				}
				live = append(live, s)
			}
		}

		select {
		case <-e.ctx.Done():
			if !cfg.Continuous {
				e.errs[shard] = fmt.Errorf("fleet: run cancelled: %w", e.ctx.Err())
			}
			return
		default:
		}

		switch {
		case len(live) == 0:
			// An empty admission-controlled shard still walks the round
			// clock (and the sink barriers below) so it stays lock-step
			// with the fleet.
		case batchPat != nil:
			// Fully batched round: one sensor sweep, the shard monitor's
			// decision, then one struct-of-arrays ODE step advances every
			// live session's physiology together. Each stage runs per lane
			// in the same order with the same arithmetic as the scalar
			// cycle, so traces stay identical.
			lanes = lanes[:0]
			for _, s := range live {
				lanes = append(lanes, s.lane)
			}
			if batchSensor != nil {
				cleanCGM, tMins = cleanCGM[:0], tMins[:0]
				for _, s := range live {
					cleanCGM = append(cleanCGM, s.st.CleanCGM())
					tMins = append(tMins, s.st.CycleTime())
				}
				batchSensor.ReadLanes(lanes, cleanCGM, tMins, sensedCGM[:len(live)])
			} else {
				for i, s := range live {
					sensedCGM[i] = s.st.CleanCGM()
				}
			}
			obs = obs[:0]
			for i, s := range live {
				obs = append(obs, s.st.BeginStepSensed(sensedCGM[i]))
			}
			if bm != nil {
				bm.StepBatch(lanes, obs, verdicts[:len(live)])
			}
			for i, s := range live {
				// The plan's scheduled meal for this cycle rides the same
				// batched ODE step as the insulin; an explicit zero is
				// bit-identical to the nil carb path.
				carbs[i] = s.st.PendingCarb()
				delivered[i] = s.st.FinishStepDeferred(verdicts[i])
			}
			batchPat.StepLanes(lanes, delivered[:len(live)], carbs[:len(live)], cfg.CycleMin)
		default:
			// Scalar physiology: each session steps its own patient, split
			// at the shard monitor's decision; without a monitor every
			// verdict stays zero.
			lanes, obs = lanes[:0], obs[:0]
			for _, s := range live {
				lanes = append(lanes, s.lane)
				obs = append(obs, s.st.BeginStep())
			}
			if bm != nil {
				bm.StepBatch(lanes, obs, verdicts[:len(live)])
			}
			for i, s := range live {
				s.st.FinishStep(verdicts[i])
			}
		}
		if batchTelem != nil && len(live) > 0 {
			// One batched rule-stream push covers the whole window's
			// telemetry for this cycle. The samples are copied once here
			// and shared with noteStep below.
			telemSamples, telemStates, telemLanes = telemSamples[:0], telemStates[:0], telemLanes[:0]
			for _, s := range live {
				sample, ok := s.st.LastSample()
				if !ok {
					e.errs[shard] = fmt.Errorf("fleet: session %d stepped without a sample", s.Index)
					return
				}
				telemSamples = append(telemSamples, sample)
				telemLanes = append(telemLanes, s.lane)
			}
			for i := range telemSamples {
				telemStates = append(telemStates, scs.StateFromSample(&telemSamples[i]))
			}
			if err := batchTelem.PushLanes(telemLanes, telemStates, telemVerdicts[:len(live)]); err != nil {
				e.errs[shard] = fmt.Errorf("fleet: shard %d telemetry: %w", shard, err)
				return
			}
		}
		for i, s := range live {
			var sample *trace.Sample
			var bv *scs.StreamVerdict
			switch {
			case batchTelem != nil:
				sample, bv = &telemSamples[i], &telemVerdicts[i]
			case laneMargins != nil:
				// FromMonitor telemetry reads the shard monitor's verdict at
				// this session's lane.
				var ok bool
				if telemVerdicts[i], ok = laneMargins.StreamVerdictLane(s.lane); !ok {
					e.errs[shard] = fmt.Errorf("fleet: session %d: monitor produced no streaming verdict", s.Index)
					return
				}
				bv = &telemVerdicts[i]
			}
			if err := e.noteStep(shard, s, sample, bv); err != nil {
				e.errs[shard] = err
				return
			}
		}
		e.steps.Add(int64(len(live)))

		// Retire finished sessions, refilling their lane from the queue
		// (finite mode) or with the next replica (continuous mode).
		for i := len(live) - 1; i >= 0; i-- {
			s := live[i]
			if !s.Done() {
				continue
			}
			e.finalize(shard, s)
			var refill *spec
			switch {
			case cfg.Continuous && e.ctx.Err() == nil:
				refill = &spec{
					index: s.Index, patientIdx: s.PatientIdx,
					scenIdx: s.scenIdx, replica: s.Replica + 1, program: s.program,
					group: s.group, mitigate: s.mitigate,
				}
			case !cfg.Continuous && next < len(slots):
				sp := cfg.specFor(slots[next], 0)
				next++
				refill = &sp
			}
			if refill == nil {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			if bm != nil {
				bm.ResetLane(s.lane)
			}
			if batchTelem != nil {
				batchTelem.ResetLane(s.lane)
			}
			ns, err := start(*refill, s.lane)
			if err != nil {
				e.errs[shard] = err
				return
			}
			live[i] = ns
		}

		if e.sinks != nil {
			rounds++
			if rounds == cfg.SinkEpoch {
				rounds = 0
				frontier := math.MaxInt
				if !cfg.Continuous {
					// The smallest session slot this shard will still emit
					// events for: the live window always holds the shard's
					// lowest unfinished slots (queued ones are all higher),
					// so its minimum is the shard's frontier.
					for _, s := range live {
						if s.Index < frontier {
							frontier = s.Index
						}
					}
				}
				e.sinks.await(shard, frontier)
			}
		}
		round++
	}
	// A continuous shard only drains its live window when cancellation
	// stopped the refills mid-round — that exit abandons an open epoch
	// and must not flush it (the cancellation contract in shard_sink.go);
	// checking the context rather than the mode also keeps a finite run
	// that was cancelled on its final round from flushing.
	cleanExit = e.ctx.Err() == nil
}

// noteStep emits the session's first monitor alarm and, when telemetry
// is attached, the cycle's robustness margin bv — from the shard-batched
// push or (FromMonitor) the monitor's single evaluation, so alarm and
// telemetry never evaluate the rules twice. A non-nil sample is the
// cycle's already-copied last sample (the batched path shares the copy
// it made for the rule push); nil makes noteStep fetch it.
func (e *engine) noteStep(shard int, s *Session, preSample *trace.Sample, bv *scs.StreamVerdict) error {
	if bv == nil && s.alarmed {
		return nil // nothing left to observe: skip the sample copy
	}
	sample := preSample
	if sample == nil {
		sm, ok := s.st.LastSample()
		if !ok {
			return nil
		}
		sample = &sm
	}
	if !s.alarmed && sample.Alarm {
		s.alarmed = true
		e.emit(shard, Event{
			Kind: EventAlarm, Session: s.Index, PatientIdx: s.PatientIdx,
			Replica: s.Replica, Group: s.group, Step: sample.Step, Hazard: sample.AlarmHazard,
		})
	}
	if bv == nil {
		return nil
	}
	if every := e.cfg.Telemetry.Every; every == 1 || (sample.Step+1)%every == 0 {
		e.emit(shard, Event{
			Kind: EventRobustness, Session: s.Index, PatientIdx: s.PatientIdx,
			Replica: s.Replica, Group: s.group, Step: sample.Step,
			Robustness: bv.MinRobust, Rule: bv.WorstRule,
			Margin: bv.Margin, MarginRule: bv.Rule, Hazard: bv.Hazard,
		})
	}
	return nil
}

// finalize labels a completed session, folds it into the counters,
// emits its terminal events, and either retains or recycles the trace.
// Completion counts and progress marks are stamped at delivery, in
// canonical order (shard_sink.go).
func (e *engine) finalize(shard int, s *Session) {
	tr := s.Finish()
	if s.alarmed {
		e.alarmed.Add(1)
	}
	hazard := tr.DominantHazard()
	if hazard != trace.HazardNone {
		e.hazardous.Add(1)
		e.emit(shard, Event{
			Kind: EventHazard, Session: s.Index, PatientIdx: s.PatientIdx,
			Replica: s.Replica, Group: s.group, Step: tr.FirstHazardStep(), Hazard: hazard,
		})
	}
	e.completed.Add(1)
	e.emit(shard, Event{
		Kind: EventSessionDone, Session: s.Index, PatientIdx: s.PatientIdx,
		Replica: s.Replica, Group: s.group, Step: tr.Len(), Hazard: hazard,
	})
	if e.traces != nil {
		e.traces[s.Index] = tr
	} else {
		e.pool.put(tr.Samples)
	}
}

// newSession builds the patient, controller, sensor, and stepper for
// one session slot; its monitor is its lane of the shard's. With a
// batched patient bank the session's physiology is its lane of the bank
// (configured here) and its sensor joins the shard's batched sensor
// sweep; the session RNG seeds the lane's noise stream exactly as the
// scalar path would, so the two paths draw identical noise.
func (e *engine) newSession(sp spec, lane int, batchPat sim.BatchPatient, batchSensor *sensor.BatchModel) (*Session, error) {
	cfg := &e.cfg

	// Resolve the session's scenario: an inline program (admitted with
	// AdmitSpec.Program, compiled here against the fleet horizon) or a
	// compiled table entry.
	var prog fault.Program
	var plan *fault.Plan
	if sp.program != nil {
		prog = *sp.program
		pl, err := prog.Compile(cfg.Steps, cfg.CycleMin)
		if err != nil {
			return nil, fmt.Errorf("fleet: session %d (patient %d): %w", sp.index, sp.patientIdx, err)
		}
		plan = pl
	} else {
		prog, plan = cfg.Scenarios[sp.scenIdx], cfg.plans[sp.scenIdx]
	}
	wrap := func(err error) error {
		return fmt.Errorf("fleet: session %d (patient %d, %s): %w",
			sp.index, sp.patientIdx, prog.Name, err)
	}
	var patient closedloop.Patient
	if batchPat != nil {
		if err := batchPat.ConfigureLane(lane, sp.patientIdx); err != nil {
			return nil, wrap(err)
		}
		patient = sim.LaneView{B: batchPat, Lane: lane}
	} else {
		p, err := cfg.Platform.NewPatient(sp.patientIdx)
		if err != nil {
			return nil, wrap(err)
		}
		patient = p
	}
	ctrl, err := cfg.Platform.NewController(patient.Basal())
	if err != nil {
		return nil, wrap(err)
	}
	seed := sessionSeed(cfg.Seed, sp)
	if sp.restore != nil {
		// A restored session keeps the seed its stream was built from —
		// its trajectory must not depend on the slot it lands on.
		seed = sp.restore.Seed
	}
	src := &countingSource{src: rand.NewSource(seed)}
	rng := rand.New(src)
	opts := closedloop.StepperOptions{Samples: e.pool.get()}
	var sensorModel *sensor.Model
	if cfg.Sensor != nil {
		if batchSensor != nil {
			// The lane joins the shard's batched sensor sweep instead of
			// hooking the stepper: same config, same per-session RNG, so
			// the lane's noise stream is the scalar model's stream.
			if err := batchSensor.SetLane(lane, *cfg.Sensor, rng); err != nil {
				return nil, wrap(err)
			}
		} else {
			sensorModel, err = sensor.New(*cfg.Sensor, rng)
			if err != nil {
				return nil, wrap(err)
			}
			opts.Sensor = sensorModel.Read
		}
	}
	mitigation := cfg.Mitigation
	mitigation.Enabled = (cfg.Mitigate || sp.mitigate) && cfg.NewBatchMonitor != nil
	loopCfg := closedloop.Config{
		Platform:   cfg.Platform.Name + "/" + ctrl.Name(),
		Steps:      cfg.Steps,
		CycleMin:   cfg.CycleMin,
		Patient:    patient,
		Controller: ctrl,
		Mitigation: mitigation,
		Plan:       plan, // InitialBG resolves from the plan
	}
	st, err := closedloop.NewStepper(loopCfg, opts)
	if err != nil {
		return nil, wrap(err)
	}
	if sp.restore != nil {
		// Fast-forward the fresh stream to the captured draw position: no
		// construction above consumes the RNG, so burning Draws values
		// leaves the stream exactly where the snapshot cut it.
		for i := uint64(0); i < sp.restore.Draws; i++ {
			src.src.Int63()
		}
		src.n = sp.restore.Draws
	}
	return &Session{
		Index: sp.index, PatientIdx: sp.patientIdx, Replica: sp.replica,
		Program: prog, scenIdx: sp.scenIdx, program: sp.program, group: sp.group,
		mitigate: sp.mitigate, lane: lane, seed: seed, src: src,
		sensorModel: sensorModel, st: st,
	}, nil
}

// sessionSeed derives a session's RNG stream from its coordinates with a
// splitmix64-style mix, so streams are decorrelated, unique per
// slot x replica, and independent of scheduling.
func sessionSeed(seed int64, sp spec) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [4]uint64{
		uint64(sp.index) + 1,
		uint64(sp.patientIdx) + 1,
		uint64(sp.scenIdx) + 1,
		uint64(sp.replica) + 1,
	} {
		z += v * 0x9e3779b97f4a7c15
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}
