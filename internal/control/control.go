package control

// Input is what a controller observes at the start of a control cycle:
// the sensed glucose and the cycle timing. Controllers keep their own
// IOB estimates internally (as OpenAPS does) so that fault injection can
// perturb them.
type Input struct {
	TimeMin  float64 // minutes since simulation start
	CGM      float64 // sensed glucose, mg/dL
	CycleMin float64 // control-cycle length in minutes
}

// Output is the controller's command for the next cycle.
type Output struct {
	RateUPerH float64 // insulin infusion rate command, U/h
	IOB       float64 // controller's own IOB estimate at decision time, U
}

// Controller is a closed-loop insulin controller.
//
// Vars exposes named internal state variables for the source-level fault
// injection engine (Section IV-C1 of the paper perturbs "inputs, outputs,
// and the internal state variables of the APS control software"). The
// returned pointers remain valid until the next Reset.
type Controller interface {
	// Name identifies the control algorithm (e.g. "openaps").
	Name() string
	// Decide computes the insulin command for the cycle. Implementations
	// must first refresh their internal variables from in, then read the
	// (possibly fault-perturbed) variables to form the command.
	Decide(in Input) Output
	// RecordDelivery informs the controller what was actually delivered
	// over the elapsed cycle (the safety monitor may have overridden the
	// command), so its IOB bookkeeping tracks reality. dtMin must not
	// be negative; the IOB tracker panics on a negative interval.
	RecordDelivery(rateUPerH, dtMin float64)
	// Vars returns the named fault-injectable internal variables.
	Vars() map[string]*float64
	// SetPerturb attaches a fault-injection hook invoked at StagePre and
	// StagePost of every Decide call; nil detaches.
	SetPerturb(h PerturbFunc)
	// Reset restores the controller to its initial state.
	Reset()
}
