package main

// Tracing from outside the program. Every wrapper here is installed
// through a constructor the library already takes as a parameter — the
// patient and controller constructors of fleet.Platform and
// experiment.Platform, and falsify.Config.NewMonitor — so the program
// runs unmodified. Hot per-cycle calls land in accumulators written by
// one goroutine only (a fleet shard, or the single falsify goroutine);
// coarse calls are recorded by the workloads as spans.

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/closedloop"
	"repro/internal/control"
	"repro/internal/experiment"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Every wrapper forwards each optional interface the engine asserts on
// the value it replaces.
var (
	_ sim.BatchPatient         = (*bankWrap)(nil)
	_ sim.BatchExerciseHost    = (*bankWrap)(nil)
	_ snapshot.LaneSnapshotter = (*bankWrap)(nil)
	_ control.Controller       = (*ctrlWrap)(nil)
	_ snapshot.Snapshotter     = (*ctrlWrap)(nil)
	_ closedloop.Patient       = (*patientWrap)(nil)
	_ sim.ExerciseHost         = (*patientWrap)(nil)
	_ snapshot.Snapshotter     = (*patientWrap)(nil)
	_ monitor.Monitor          = (*monitorWrap)(nil)
)

// clockBase anchors now(); all timestamps in one process share it.
var clockBase = time.Now()

// now reads the monotonic clock in nanoseconds since clockBase.
func now() int64 { return int64(time.Since(clockBase)) }

// callAcc accumulates one kind of hot call: count and total time. One
// goroutine writes it.
type callAcc struct{ n, ns int64 }

func (a *callAcc) add(ns int64) {
	a.n++
	a.ns += ns
}

func (a *callAcc) merge(b *callAcc) {
	a.n += b.n
	a.ns += b.ns
}

// perCall is the mean duration of one call in nanoseconds.
func (a *callAcc) perCall() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n)
}

// roundClass tags the gap between two lock-step rounds by the barrier it
// holds: none, a sink-epoch merge, or an admission gate (which, at the
// default periods, also closes an epoch).
type roundClass int

const (
	roundPlain roundClass = iota
	roundEpoch
	roundGate
)

// counters are the round-clock totals of one shard, one fleet run or
// several runs; add is the one place they are merged.
type counters struct {
	roundNs             []int64
	roundTotal, otherNs int64
	gapSim, gapCtrl     int64
	class               [3]struct{ n, ns int64 }
	sim                 callAcc // StepLanes calls
	laneSteps           int64
	ctrl                callAcc // Decide calls of the shard's sessions
	starts, startNs     int64   // ConfigureLane plus controller construction
}

// add folds another set of counters in.
func (c *counters) add(o *counters) {
	c.roundNs = append(c.roundNs, o.roundNs...)
	c.roundTotal += o.roundTotal
	c.otherNs += o.otherNs
	c.gapSim += o.gapSim
	c.gapCtrl += o.gapCtrl
	for i := range c.class {
		c.class[i].n += o.class[i].n
		c.class[i].ns += o.class[i].ns
	}
	c.sim.merge(&o.sim)
	c.ctrl.merge(&o.ctrl)
	c.laneSteps += o.laneSteps
	c.starts += o.starts
	c.startNs += o.startNs
}

// shardAcc is everything one fleet shard records. The shard's goroutine
// is its only writer; it is read after the fleet has stopped.
type shardAcc struct {
	// Round clock (traced only): two consecutive StepLanes starts bound
	// a round, which splits into its sim time (the first StepLanes),
	// its Decide calls and the remainder.
	counters
	prevStart, prevSim int64
	rounds             int
	ctrlInRound        int64

	// Block clock (on whenever blockRounds is set, traced or not): the
	// shard's lane steps per second over each run of blockRounds rounds,
	// timed from the end of one StepLanes call to the end of another.
	blockStart, blockSteps int64
	blockRounds            int
	blocks                 []float64
}

// roundDone advances the block clock by one round of the given lanes
// that ended at end.
func (a *shardAcc) roundDone(lanes, every int, end int64) {
	if every <= 0 {
		return
	}
	if a.blockStart == 0 {
		a.blockStart = end
		return
	}
	a.blockSteps += int64(lanes)
	if a.blockRounds++; a.blockRounds == every {
		a.blocks = append(a.blocks, float64(a.blockSteps)/(float64(end-a.blockStart)/1e9))
		a.blockStart, a.blockSteps, a.blockRounds = end, 0, 0
	}
}

// tracer collects one fleet run's or one search's accumulators.
type tracer struct {
	// on enables per-call timing; off leaves only the block clock.
	on bool
	// blockRounds is the block clock's length in rounds (campaign); zero
	// turns it off.
	blockRounds int
	// epochEvery and gateEvery are the fleet's sink-epoch and
	// admission-gate periods in rounds; zero means none.
	epochEvery, gateEvery int
	// onConfigure, when set, observes every ConfigureLane with the time
	// it was called (fleetd admission gates).
	onConfigure func(patientIdx int, at int64)

	mu     sync.Mutex
	shards map[uint64]*shardAcc // by the goroutine that owns the bank
	order  []*shardAcc

	// scalar is the accumulator for calls made off any fleet shard: the
	// falsify search, which runs on one goroutine.
	scalar struct {
		patient, ctrl, mon callAcc
	}
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, shards: make(map[uint64]*shardAcc)}
}

// goid returns the calling goroutine's id. Fleet shards build their
// lane bank and every session's controller on their own goroutine, so
// the id links a controller to its shard's accumulator; it is read once
// per construction, never per cycle.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64) // a malformed header maps to 0, the off-shard bucket
	return id
}

func (t *tracer) shardFor(id uint64) *shardAcc {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shards[id]
}

// classify tags the gap that ends when round r starts.
func (t *tracer) classify(r int) roundClass {
	switch {
	case t.gateEvery > 0 && r%t.gateEvery == 0:
		return roundGate
	case t.epochEvery > 0 && r%t.epochEvery == 0:
		return roundEpoch
	default:
		return roundPlain
	}
}

// fleetPlatform wraps a platform's batch-patient constructor (the block
// clock, and with tracing on the round clock) and, with tracing on, its
// controller constructor.
func (t *tracer) fleetPlatform(p experiment.Platform) experiment.Platform {
	newBatch := p.NewBatchPatient
	p.NewBatchPatient = func(lanes int) (sim.BatchPatient, error) {
		inner, err := newBatch(lanes)
		if err != nil {
			return nil, err
		}
		ex, ok1 := inner.(sim.BatchExerciseHost)
		ls, ok2 := inner.(snapshot.LaneSnapshotter)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("perfbench: batch patient %T lacks exercise or lane snapshot support", inner)
		}
		acc := &shardAcc{}
		t.mu.Lock()
		t.shards[goid()] = acc
		t.order = append(t.order, acc)
		t.mu.Unlock()
		return &bankWrap{BatchPatient: inner, ex: ex, ls: ls, acc: acc, t: t}, nil
	}
	if t.on {
		p.NewController = t.wrapController(p.NewController)
	}
	return p
}

// wrapController times Decide calls into the constructing shard's
// accumulator (or the off-shard one).
func (t *tracer) wrapController(newCtrl func(float64) (control.Controller, error)) func(float64) (control.Controller, error) {
	return func(basal float64) (control.Controller, error) {
		t0 := now()
		inner, err := newCtrl(basal)
		if err != nil {
			return nil, err
		}
		sn, ok := inner.(snapshot.Snapshotter)
		if !ok {
			// A tenant snapshot asserts Snapshotter on the controller; a
			// wrapper that hid it would turn snapshots into failures.
			return nil, fmt.Errorf("perfbench: controller %T does not support snapshot", inner)
		}
		built := now() - t0
		c := &ctrlWrap{inner: inner, snap: sn}
		if acc := t.shardFor(goid()); acc != nil {
			acc.startNs += built
			c.acc, c.inRound = &acc.ctrl, &acc.ctrlInRound
		} else {
			var discard int64
			c.acc, c.inRound = &t.scalar.ctrl, &discard
		}
		return c, nil
	}
}

// scalarPlatform wraps a platform's scalar patient constructor and its
// controller constructor for single-goroutine closed loops (falsify).
func (t *tracer) scalarPlatform(p experiment.Platform) experiment.Platform {
	newPatient := p.NewPatient
	p.NewPatient = func(idx int) (closedloop.Patient, error) {
		inner, err := newPatient(idx)
		if err != nil {
			return nil, err
		}
		ex, ok1 := inner.(sim.ExerciseHost)
		sn, ok2 := inner.(snapshot.Snapshotter)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("perfbench: patient %T lacks exercise or snapshot support", inner)
		}
		return &patientWrap{inner: inner, ex: ex, sn: sn, acc: &t.scalar.patient}, nil
	}
	p.NewController = t.wrapController(p.NewController)
	return p
}

// wrapMonitor times Step calls of monitors built by newMon.
func (t *tracer) wrapMonitor(newMon func() (monitor.Monitor, error)) func() (monitor.Monitor, error) {
	return func() (monitor.Monitor, error) {
		inner, err := newMon()
		if err != nil {
			return nil, err
		}
		return &monitorWrap{inner: inner, acc: &t.scalar.mon}, nil
	}
}

// fleetTotals folds every shard into one view.
type fleetTotals struct {
	counters
	skew   float64
	blocks []float64 // every shard's block rates
}

// totals folds the shards; call it only after the fleet has stopped.
func (t *tracer) totals() fleetTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out fleetTotals
	var busy []float64
	for _, a := range t.order {
		out.add(&a.counters)
		busy = append(busy, float64(a.sim.ns+a.ctrl.ns))
		out.blocks = append(out.blocks, a.blocks...)
	}
	if len(busy) > 0 {
		var sum, max float64
		for _, b := range busy {
			sum += b
			if b > max {
				max = b
			}
		}
		if sum > 0 {
			out.skew = max / (sum / float64(len(busy)))
		}
	}
	return out
}

// bankWrap wraps one shard's lane bank. Lane accessors forward through
// the embedded interface; ConfigureLane and StepLanes carry the clocks.
type bankWrap struct {
	sim.BatchPatient
	ex  sim.BatchExerciseHost
	ls  snapshot.LaneSnapshotter
	acc *shardAcc
	t   *tracer
}

// ConfigureLane implements sim.BatchPatient: a session starts here.
func (b *bankWrap) ConfigureLane(lane, patientIdx int) error {
	t0 := now()
	err := b.BatchPatient.ConfigureLane(lane, patientIdx)
	if b.t.on {
		b.acc.starts++
		b.acc.startNs += now() - t0
	}
	if b.t.onConfigure != nil {
		b.t.onConfigure(patientIdx, t0)
	}
	return err
}

// StepLanes implements sim.BatchPatient: one call per lock-step round.
func (b *bankWrap) StepLanes(lanes []int, insulinUPerH, carbGPerMin []float64, dtMin float64) {
	a := b.acc
	if !b.t.on {
		b.BatchPatient.StepLanes(lanes, insulinUPerH, carbGPerMin, dtMin)
		a.roundDone(len(lanes), b.t.blockRounds, now())
		return
	}
	t0 := now()
	b.BatchPatient.StepLanes(lanes, insulinUPerH, carbGPerMin, dtMin)
	t1 := now()
	if a.prevStart != 0 {
		gap := t0 - a.prevStart
		a.roundNs = append(a.roundNs, gap)
		a.roundTotal += gap
		a.gapSim += a.prevSim
		a.gapCtrl += a.ctrlInRound
		a.otherNs += gap - a.prevSim - a.ctrlInRound
		c := b.t.classify(a.rounds)
		a.class[c].n++
		a.class[c].ns += gap
	}
	a.ctrlInRound = 0
	a.prevStart, a.prevSim = t0, t1-t0
	a.sim.add(t1 - t0)
	a.laneSteps += int64(len(lanes))
	a.rounds++
	a.roundDone(len(lanes), b.t.blockRounds, t1)
}

// SetLaneExercise implements sim.BatchExerciseHost.
func (b *bankWrap) SetLaneExercise(lane int, perMin float64) { b.ex.SetLaneExercise(lane, perMin) }

// SnapshotLane implements snapshot.LaneSnapshotter.
func (b *bankWrap) SnapshotLane(lane int, enc *snapshot.Encoder) { b.ls.SnapshotLane(lane, enc) }

// RestoreLane implements snapshot.LaneSnapshotter.
func (b *bankWrap) RestoreLane(lane int, dec *snapshot.Decoder) error {
	return b.ls.RestoreLane(lane, dec)
}

// ctrlWrap times one session's controller.
type ctrlWrap struct {
	inner   control.Controller
	snap    snapshot.Snapshotter
	acc     *callAcc
	inRound *int64
}

// Name implements control.Controller.
func (c *ctrlWrap) Name() string { return c.inner.Name() }

// Decide implements control.Controller.
func (c *ctrlWrap) Decide(in control.Input) control.Output {
	t0 := now()
	out := c.inner.Decide(in)
	d := now() - t0
	c.acc.add(d)
	*c.inRound += d
	return out
}

// RecordDelivery implements control.Controller.
func (c *ctrlWrap) RecordDelivery(rateUPerH, dtMin float64) { c.inner.RecordDelivery(rateUPerH, dtMin) }

// Vars implements control.Controller; fault injection perturbs the
// inner controller's own variables.
func (c *ctrlWrap) Vars() map[string]*float64 { return c.inner.Vars() }

// SetPerturb implements control.Controller.
func (c *ctrlWrap) SetPerturb(h control.PerturbFunc) { c.inner.SetPerturb(h) }

// Reset implements control.Controller.
func (c *ctrlWrap) Reset() { c.inner.Reset() }

// SnapshotState implements snapshot.Snapshotter.
func (c *ctrlWrap) SnapshotState(enc *snapshot.Encoder) { c.snap.SnapshotState(enc) }

// RestoreState implements snapshot.Snapshotter.
func (c *ctrlWrap) RestoreState(dec *snapshot.Decoder) error { return c.snap.RestoreState(dec) }

// patientWrap times a scalar patient's Step.
type patientWrap struct {
	inner closedloop.Patient
	ex    sim.ExerciseHost
	sn    snapshot.Snapshotter
	acc   *callAcc
}

// ID implements closedloop.Patient.
func (p *patientWrap) ID() string { return p.inner.ID() }

// Step implements closedloop.Patient.
func (p *patientWrap) Step(insulinUPerH, carbGPerMin, dtMin float64) {
	t0 := now()
	p.inner.Step(insulinUPerH, carbGPerMin, dtMin)
	p.acc.add(now() - t0)
}

// BG implements closedloop.Patient.
func (p *patientWrap) BG() float64 { return p.inner.BG() }

// CGM implements closedloop.Patient.
func (p *patientWrap) CGM() float64 { return p.inner.CGM() }

// Basal implements closedloop.Patient.
func (p *patientWrap) Basal() float64 { return p.inner.Basal() }

// Reset implements closedloop.Patient.
func (p *patientWrap) Reset(initialBG float64) { p.inner.Reset(initialBG) }

// SetExercise implements sim.ExerciseHost.
func (p *patientWrap) SetExercise(perMin float64) { p.ex.SetExercise(perMin) }

// SnapshotState implements snapshot.Snapshotter.
func (p *patientWrap) SnapshotState(enc *snapshot.Encoder) { p.sn.SnapshotState(enc) }

// RestoreState implements snapshot.Snapshotter.
func (p *patientWrap) RestoreState(dec *snapshot.Decoder) error { return p.sn.RestoreState(dec) }

// monitorWrap times a monitor's Step.
type monitorWrap struct {
	inner monitor.Monitor
	acc   *callAcc
}

// Name implements monitor.Monitor.
func (m *monitorWrap) Name() string { return m.inner.Name() }

// Reset implements monitor.Monitor.
func (m *monitorWrap) Reset() { m.inner.Reset() }

// Step implements monitor.Monitor.
func (m *monitorWrap) Step(obs monitor.Observation) monitor.Verdict {
	t0 := now()
	v := m.inner.Step(obs)
	m.acc.add(now() - t0)
	return v
}
