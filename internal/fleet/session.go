package fleet

import (
	"repro/internal/closedloop"
	"repro/internal/fault"
	"repro/internal/sensor"
	"repro/internal/trace"
)

// Session is one long-running closed-loop simulation inside a fleet: a
// patient and controller advancing one control cycle per engine round,
// decided by its lane of the shard's monitor when one is attached. Its entire evolution is a function of its
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
	lane     int // shard-local lane of the batched banks and monitor
	// seed is the derived per-session seed and src the counting source
	// behind the session RNG; together they pin the RNG stream position
	// a snapshot records (snapshot.go).
	seed int64
	src  *countingSource
	// sensorModel is the session's scalar sensor model (nil when the
	// shard batches sensing), retained for checkpointing.
	sensorModel *sensor.Model
	st          *closedloop.Stepper
	alarmed     bool
}

// Done reports whether the session has run all its cycles.
func (s *Session) Done() bool { return s.st.Done() }

// StepIndex returns the next cycle index.
func (s *Session) StepIndex() int { return s.st.StepIndex() }

// Finish labels and returns the session's trace.
func (s *Session) Finish() *trace.Trace { return s.st.Finish() }
