package fleet

import (
	"math/rand"

	"repro/internal/closedloop"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/sensor"
	"repro/internal/trace"
)

// Session is one long-running closed-loop simulation inside a fleet: a
// patient, controller, and (optional) monitor advancing one control
// cycle per engine round. Its entire evolution is a function of its
// coordinates and the master seed — never of goroutine scheduling — so
// fleet results are identical at any parallelism level.
type Session struct {
	// Index is the session's slot in Result.Traces.
	Index int
	// PatientIdx is the cohort index; Program the scenario program the
	// session runs.
	PatientIdx int
	Program    fault.Program
	// Replica numbers restarts of this slot in continuous mode; each
	// replica draws from a fresh RNG stream.
	Replica int

	scenIdx int            // scenario-table index; -1 for inline programs
	program *fault.Program // inline program (AdmitSpec.Program), carried into refills
	group   string         // AdmitSpec group tag (admitted sessions)
	// mitigate carries an admitted session's per-spec override into
	// continuous-mode replica restarts.
	mitigate bool
	lane     int // shard-local lane for batched monitors
	rng      *rand.Rand
	// seed is the derived per-session seed and src the counting source
	// behind rng; together they pin the RNG stream position a snapshot
	// records (snapshot.go).
	seed int64
	src  *countingSource
	// mon is the session's own monitor (nil with a shard-batched one) and
	// sensorModel its scalar sensor model (nil when the shard batches
	// sensing); both retained for checkpointing.
	mon         monitor.Monitor
	sensorModel *sensor.Model
	st          *closedloop.Stepper
	alarmed     bool
	margin      marginMonitor // monitor-sourced telemetry (FromMonitor)
}

// LastVerdict returns the monitor verdict of the most recently
// completed cycle, including margin and rule attribution.
func (s *Session) LastVerdict() (closedloop.Verdict, bool) { return s.st.LastVerdict() }

// Done reports whether the session has run all its cycles.
func (s *Session) Done() bool { return s.st.Done() }

// StepIndex returns the next cycle index.
func (s *Session) StepIndex() int { return s.st.StepIndex() }

// Step runs one full cycle with the session's own monitor (if any).
func (s *Session) Step() { s.st.Step() }

// BeginStep advances to the monitor decision point and returns the
// observation for batched evaluation.
func (s *Session) BeginStep() closedloop.Observation { return s.st.BeginStep() }

// FinishStep applies an externally computed verdict (batched inference).
func (s *Session) FinishStep(v closedloop.Verdict) { s.st.FinishStep(v) }

// Finish labels and returns the session's trace.
func (s *Session) Finish() *trace.Trace { return s.st.Finish() }

// RNG exposes the session's deterministic random stream (sensor noise
// and any future stochastic session behavior draw from it).
func (s *Session) RNG() *rand.Rand { return s.rng }
