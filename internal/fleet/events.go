package fleet

import (
	"fmt"

	"repro/internal/trace"
)

// EventKind enumerates the fleet's lifecycle events. Every switch over
// it must cover every kind — fleetvet's exhaustive pass is the static
// twin of the TestKindRankExhaustive runtime guard.
//
//fleetvet:exhaustive
type EventKind int

const (
	// EventSessionStart marks a session (or continuous-mode replica)
	// beginning its first cycle.
	EventSessionStart EventKind = iota
	// EventAlarm marks a session's first monitor alarm; Step is the
	// cycle that raised it.
	EventAlarm
	// EventHazard marks a completed session whose trace was labeled
	// hazardous (ground truth is only known after labeling).
	EventHazard
	// EventSessionDone marks a session running to completion.
	EventSessionDone
	// EventProgress marks every Config.ProgressEvery-th completion; it
	// is synthesized at delivery, along the canonical order.
	EventProgress
	// EventRobustness streams a session's per-cycle STL robustness
	// margin — the minimum quantitative margin across the telemetry rule
	// set, evaluated by the incremental streaming engine (Config.Telemetry).
	EventRobustness
	// EventSessionEvict marks a session removed from a running fleet by
	// an admission-gate eviction (Config.Admissions); Step is the cycle
	// it had reached. Evicted sessions emit no EventSessionDone and are
	// not counted completed.
	EventSessionEvict

	// eventKindCount sentinels the enum. A new kind goes above this line
	// and must be given a String name and an explicit kindRank merge
	// position — fleetvet's exhaustive pass and TestKindRankExhaustive
	// fail otherwise, so a future event kind cannot silently get a
	// nondeterministic merge position.
	//fleetvet:sentinel
	eventKindCount
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventSessionStart:
		return "start"
	case EventAlarm:
		return "alarm"
	case EventHazard:
		return "hazard"
	case EventSessionDone:
		return "done"
	case EventProgress:
		return "progress"
	case EventRobustness:
		return "robustness"
	case EventSessionEvict:
		return "evict"
	default:
		return "unknown"
	}
}

// Event is one entry of the fleet's progress/hazard stream, delivered
// to Config.Sinks in canonical order: sorted by (Session, Replica,
// Step, kind), a pure function of the session coordinates, so the
// stream is as deterministic as the traces.
type Event struct {
	Kind       EventKind
	Session    int // session slot index
	PatientIdx int
	Replica    int
	// Group tags every event of an admitted session with its AdmitSpec
	// group (the control plane's tenant ID). Empty for static slots.
	Group string
	// Step is the cycle of the event: first alarm step for EventAlarm,
	// first hazard step for EventHazard, trace length for
	// EventSessionDone.
	Step   int
	Hazard trace.HazardType
	// Completed carries the completion count on EventSessionDone and
	// EventProgress, stamped along the canonical delivery order.
	Completed int64
	// Robustness carries the minimum STL robustness across the telemetry
	// rule bodies on EventRobustness; Rule is the ID of the rule
	// attaining it. Margin is the signed rule margin of the same
	// evaluation — positive: distance to the nearest unsafe-control-
	// action boundary; negative: depth of the worst violated rule, whose
	// ID is MarginRule and whose predicted hazard class is Hazard.
	Robustness float64
	Rule       int
	Margin     float64
	MarginRule int
}

// String renders a compact human-readable line for log streaming.
func (e Event) String() string {
	switch e.Kind {
	case EventProgress:
		return fmt.Sprintf("progress: %d sessions completed", e.Completed)
	case EventAlarm, EventHazard:
		return fmt.Sprintf("%s: session %d (patient %d) %s at step %d",
			e.Kind, e.Session, e.PatientIdx, e.Hazard, e.Step)
	case EventRobustness:
		return fmt.Sprintf("robustness: session %d (patient %d) margin %.3f (rule %d, min STL %.3f) at step %d",
			e.Session, e.PatientIdx, e.Margin, e.MarginRule, e.Robustness, e.Step)
	case EventSessionStart, EventSessionDone, EventSessionEvict:
		return fmt.Sprintf("%s: session %d (patient %d, replica %d)",
			e.Kind, e.Session, e.PatientIdx, e.Replica)
	default:
		return fmt.Sprintf("%s: session %d (patient %d, replica %d)",
			e.Kind, e.Session, e.PatientIdx, e.Replica)
	}
}
