package closedloop

import (
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// StepperOptions extend a Config for incremental (fleet) execution.
type StepperOptions struct {
	// Samples, when non-nil, becomes the trace's sample buffer — the
	// fleet engine recycles these through a sync.Pool so long-running
	// session churn does not allocate per run.
	Samples []trace.Sample
	// Sensor optionally transforms the clean CGM reading at time tMin
	// (e.g. a sensor.Model driven by a per-session RNG). Nil reads the
	// patient's CGM directly, matching Run.
	Sensor func(cleanCGM, tMin float64) float64
}

// Stepper executes a closed-loop simulation one control cycle at a time.
// It is the single implementation of the simulation loop: Run drives it
// to completion in one call, and the fleet engine interleaves many
// steppers as concurrent sessions, optionally splitting each cycle at
// the monitor decision (BeginStep / FinishStep) so one batched inference
// call can serve a whole shard.
//
// A cycle runs either as Step (the attached cfg.Monitor decides) or as
// BeginStep → FinishStep (the caller supplies the verdict, e.g. from a
// monitor.BatchMonitor). Both orders produce samples identical to Run.
type Stepper struct {
	cfg      Config
	opts     StepperOptions
	injector *fault.Injector
	exec     *fault.PlanExec  // plan-path injections, nil without a Plan
	exHost   sim.ExerciseHost // set only when the plan schedules exercise
	monIOB   *control.IOBTracker
	tr       *trace.Trace

	step          int
	prevCGM       float64
	prevIOB       float64
	prevDelivered float64

	lastVerdict Verdict

	pending  pendingStep
	finished bool
}

// pendingStep carries the half-completed cycle between BeginStep and
// FinishStep.
type pendingStep struct {
	active   bool
	sample   trace.Sample
	obs      Observation
	carb     float64 // plan-scheduled carbohydrate ingestion, g/min
	occluded bool    // plan-scheduled pump occlusion for this cycle
}

// NewStepper validates the config and prepares the run (resetting the
// patient, controller, and monitor, and arming the fault injector).
func NewStepper(cfg Config, opts StepperOptions) (*Stepper, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.Patient.Reset(cfg.InitialBG)
	cfg.Controller.Reset()
	if cfg.Monitor != nil {
		cfg.Monitor.Reset()
	}

	st := &Stepper{cfg: cfg, opts: opts}
	if cfg.Fault != nil {
		st.injector, err = fault.NewInjector(*cfg.Fault)
		if err != nil {
			return nil, fmt.Errorf("closedloop: %w", err)
		}
	}
	if cfg.Plan != nil {
		st.exec, err = cfg.Plan.NewExec()
		if err != nil {
			return nil, fmt.Errorf("closedloop: %w", err)
		}
		if cfg.Plan.HasExercise() {
			st.exHost, err = exerciseHost(cfg.Patient)
			if err != nil {
				return nil, err
			}
		}
	}

	curve, err := control.NewExponentialCurve(cfg.DIA, cfg.PeakT)
	if err != nil {
		return nil, fmt.Errorf("closedloop: monitor IOB curve: %w", err)
	}
	st.monIOB = control.NewIOBTracker(curve, cfg.Patient.Basal())

	// Attach the fault hook only once construction can no longer fail,
	// so an error return never leaves a stale perturbation on the
	// caller's controller (Finish detaches it on the success path).
	if st.injector != nil {
		cfg.Controller.SetPerturb(st.injector.Perturb)
	} else if st.exec != nil && st.exec.HasInjectors() {
		cfg.Controller.SetPerturb(st.exec.Perturb)
	}

	st.tr = &trace.Trace{
		PatientID: cfg.Patient.ID(),
		Platform:  cfg.Platform,
		InitialBG: cfg.InitialBG,
		CycleMin:  cfg.CycleMin,
		// Persist the scheduled basal: offline replay needs it to seed
		// the step-0 PrevRate and Observation.Basal exactly as the live
		// loop does below.
		Basal: cfg.Patient.Basal(),
	}
	if cfg.Fault != nil {
		st.tr.Fault = cfg.Fault.Info()
	}
	if cfg.Plan != nil {
		st.tr.Fault = cfg.Plan.FaultInfo()
	}
	if opts.Samples != nil {
		st.tr.Samples = opts.Samples[:0]
	} else {
		st.tr.Samples = make([]trace.Sample, 0, cfg.Steps)
	}

	st.prevCGM = math.NaN()
	st.prevDelivered = cfg.Patient.Basal()
	return st, nil
}

// Done reports whether every configured cycle has run.
func (st *Stepper) Done() bool { return st.step >= st.cfg.Steps }

// StepIndex returns the index of the next cycle to run.
func (st *Stepper) StepIndex() int { return st.step }

// LastSample returns the most recently completed cycle's sample.
func (st *Stepper) LastSample() (trace.Sample, bool) {
	if len(st.tr.Samples) == 0 {
		return trace.Sample{}, false
	}
	return st.tr.Samples[len(st.tr.Samples)-1], true
}

// CycleTime returns the simulation time (minutes) of the next cycle to
// run — the timestamp a batched sensor sweep must stamp on this
// session's reading.
func (st *Stepper) CycleTime() float64 { return float64(st.step) * st.cfg.CycleMin }

// CleanCGM returns the patient's current noise-free sensor glucose —
// the input a batched sensor sweep feeds through its error model before
// BeginStepSensed.
func (st *Stepper) CleanCGM() float64 { return st.cfg.Patient.CGM() }

// BeginStep advances the cycle to its monitor decision point: it reads
// the sensors, lets the controller decide, and returns the monitor's
// observation. The caller must follow with FinishStep. Calling BeginStep
// on a finished or already-pending stepper panics (engine bug).
func (st *Stepper) BeginStep() Observation {
	cgm := st.cfg.Patient.CGM()
	if st.opts.Sensor != nil {
		cgm = st.opts.Sensor(cgm, st.CycleTime())
	}
	return st.BeginStepSensed(cgm)
}

// BeginStepSensed is BeginStep for engines that run the sensor channel
// themselves: cgm is the already-sensed reading for this cycle (e.g.
// from a sensor.BatchModel sweep over the shard). The caller must
// follow with FinishStep or FinishStepDeferred.
func (st *Stepper) BeginStepSensed(cgm float64) Observation {
	if st.Done() || st.pending.active {
		panic("closedloop: BeginStep out of order")
	}
	cfg := &st.cfg
	if pl := cfg.Plan; pl != nil && pl.HasCGMDisturbance() {
		// Dropout freezes the loop at the previous sensed value (which
		// already carries any bias applied then); outside a dropout the
		// bias ramp adds on top of the sensed reading.
		if pl.Dropout(st.step) && !math.IsNaN(st.prevCGM) {
			cgm = st.prevCGM
		} else {
			cgm += pl.Bias(st.step)
		}
	}
	if st.exHost != nil {
		st.exHost.SetExercise(cfg.Plan.Exercise(st.step))
	}
	now := st.CycleTime()
	iob := st.monIOB.IOB()

	bgPrime := 0.0
	if !math.IsNaN(st.prevCGM) {
		bgPrime = (cgm - st.prevCGM) / cfg.CycleMin
	}
	iobPrime := 0.0
	if st.step > 0 {
		iobPrime = (iob - st.prevIOB) / cfg.CycleMin
	}

	if st.injector != nil {
		st.injector.BeginStep(st.step)
	} else if st.exec != nil {
		st.exec.BeginStep(st.step)
	}
	out := cfg.Controller.Decide(control.Input{
		TimeMin:  now,
		CGM:      cgm,
		CycleMin: cfg.CycleMin,
	})
	rate := clampRate(out.RateUPerH, cfg.Pump)
	action := trace.ClassifyAction(rate, cfg.Patient.Basal())

	sample := trace.Sample{
		Step:    st.step,
		TimeMin: now,
		BG:      cfg.Patient.BG(),
		CGM:     cgm,
		IOB:     iob,
		BGPrime: bgPrime, IOBPrime: iobPrime,
		Rate:   rate,
		Action: action,
	}
	if cfg.Fault != nil {
		sample.FaultActive = cfg.Fault.Active(st.step)
	} else if cfg.Plan != nil {
		sample.FaultActive = cfg.Plan.Active(st.step)
	}
	obs := Observation{
		Step: st.step, TimeMin: now, CycleMin: cfg.CycleMin,
		CGM: cgm, BGPrime: bgPrime, IOB: iob, IOBPrime: iobPrime,
		Rate: rate, PrevRate: st.prevDelivered, Action: action,
		Basal: cfg.Patient.Basal(),
	}
	st.pending = pendingStep{active: true, sample: sample, obs: obs}
	if pl := cfg.Plan; pl != nil {
		st.pending.carb = pl.CarbRate(st.step)
		st.pending.occluded = pl.Occluded(st.step)
	}
	st.prevCGM = cgm
	st.prevIOB = iob
	return obs
}

// FinishStep applies the verdict for the pending cycle — alarm
// annotation and (when enabled) Algorithm 1 mitigation, optionally
// scaled by the verdict's robustness margin — then delivers insulin and
// advances the patient, controller, and IOB model.
func (st *Stepper) FinishStep(v Verdict) {
	carb := st.pending.carb
	applied := st.FinishStepDeferred(v)
	st.cfg.Patient.Step(applied, carb, st.cfg.CycleMin)
}

// PendingCarb returns the carbohydrate ingestion rate (g/min) the plan
// schedules for the pending cycle — the value a deferred engine must
// feed its StepLanes sweep alongside the applied insulin. Zero without
// a plan or outside a meal window.
func (st *Stepper) PendingCarb() float64 { return st.pending.carb }

// FinishStepDeferred is FinishStep for engines that advance physiology
// themselves: it applies the verdict, records the delivery with the
// controller and IOB model, and returns the infusion rate (U/h) the
// patient actually receives — but does NOT step the patient. The caller
// must advance this session's physiology by CycleMin minutes at the
// returned rate and PendingCarb (e.g. through one
// sim.BatchPatient.StepLanes sweep) before the next BeginStep.
//
// Under a plan-scheduled pump occlusion the returned rate is 0 while
// the trace, controller, and IOB model all record the commanded
// delivery — the loop believes its insulin went in, the patient
// receives none.
func (st *Stepper) FinishStepDeferred(v Verdict) float64 {
	if !st.pending.active {
		panic("closedloop: FinishStep without BeginStep")
	}
	cfg := &st.cfg
	s := st.pending.sample
	s.Alarm = v.Alarm
	s.AlarmHazard = v.Hazard
	st.lastVerdict = v

	delivered := s.Rate
	if v.Alarm && cfg.Mitigation.Enabled {
		corrective := mitigate(v.Hazard, cfg.Mitigation, cfg.Pump)
		if cfg.Mitigation.Corrective != nil {
			if r, ok := cfg.Mitigation.Corrective(v.Hazard, st.pending.obs); ok {
				corrective = clampRate(r, cfg.Pump)
			}
		}
		delivered = corrective
		if cfg.Mitigation.ScaleByMargin && v.Margin < 0 {
			f := -v.Margin / cfg.Mitigation.MarginRef
			if f > 1 {
				f = 1
			}
			delivered = clampRate(s.Rate+f*(corrective-s.Rate), cfg.Pump)
		}
		s.Mitigated = true
	}
	s.Delivered = delivered
	st.tr.Samples = append(st.tr.Samples, s)

	cfg.Controller.RecordDelivery(delivered, cfg.CycleMin)
	st.monIOB.Record(delivered, cfg.CycleMin)

	st.prevDelivered = delivered
	applied := delivered
	if st.pending.occluded {
		applied = 0
	}
	st.pending.active = false
	st.step++
	return applied
}

// Step runs one full cycle, consulting cfg.Monitor when attached.
func (st *Stepper) Step() {
	obs := st.BeginStep()
	var v Verdict
	if st.cfg.Monitor != nil {
		v = st.cfg.Monitor.Step(obs)
	}
	st.FinishStep(v)
}

// Finish labels the trace and returns it, releasing the fault-injection
// hook. The stepper must not be used afterwards.
func (st *Stepper) Finish() *trace.Trace {
	if st.finished {
		panic("closedloop: Finish called twice")
	}
	st.finished = true
	if st.injector != nil || (st.exec != nil && st.exec.HasInjectors()) {
		st.cfg.Controller.SetPerturb(nil)
	}
	st.cfg.Labeler.Label(st.tr)
	return st.tr
}

// exerciseHost resolves the patient's exercise hook: the model itself
// for scalar patients, the lane's batch (which must support per-lane
// exercise) for a sim.LaneView.
func exerciseHost(p Patient) (sim.ExerciseHost, error) {
	if lv, ok := p.(sim.LaneView); ok {
		if _, ok := lv.B.(sim.BatchExerciseHost); !ok {
			return nil, fmt.Errorf("closedloop: batch patient %T does not support exercise", lv.B)
		}
		return lv, nil
	}
	if h, ok := p.(sim.ExerciseHost); ok {
		return h, nil
	}
	return nil, fmt.Errorf("closedloop: patient %T does not support exercise", p)
}
