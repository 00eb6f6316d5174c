package monitor

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// CaptureReplayWarnings redirects Replay's warning hook into a captured
// slice for the duration of the test.
func CaptureReplayWarnings(t *testing.T) *[]string {
	t.Helper()
	var captured []string
	prev := replayWarnf
	replayWarnf = func(format string, args ...any) {
		captured = append(captured, fmt.Sprintf(format, args...))
	}
	t.Cleanup(func() { replayWarnf = prev })
	return &captured
}

// ObservationAt is the monitor input of recorded cycle i, as Replay and
// ReplayBatch build it.
func ObservationAt(tr *trace.Trace, i int) Observation { return observation(tr, i) }
