// Package monitor implements the paper's safety monitors: the proposed
// context-aware monitor with learned thresholds (CAWT), its unlearned
// variant (CAWOT), and the baselines — medical-guideline rules
// (Table III), model-predictive control (Eq. 6), and wrappers around
// the ML classifiers of internal/ml.
//
// Every monitor observes only the controller's input-output interface:
// the sensed glucose, a monitor-side IOB estimate, and the issued
// command (Section II's wrapper assumption).
//
// # Per-session and batched evaluation
//
// Monitors come in two execution shapes with one correctness contract:
//
//   - Monitor (Step): one session, one observation, one Verdict per
//     control cycle.
//   - BatchMonitor (StepBatch): one instance per fleet shard evaluates
//     every live session's cycle in a single call — batched DT/MLP/LSTM
//     inference (BatchML, BatchSequence) amortizes model weight
//     traffic, and the shard-batched context-aware monitor
//     (BatchContextAware) evaluates the whole shard's rule streams in
//     one struct-of-arrays push.
//
// Every monitor has one implementation, the batch form:
// BatchContextAware (CAWT/CAWOT), BatchGuideline, BatchMPC, BatchML
// (DT/MLP) and BatchSequence (LSTM). NewCAWT, NewCAWOT, NewGuideline,
// NewMPC, NewMLMonitor and NewSequenceMonitor return its one-lane view
// (ContextAwareLane, Lane), whose snapshot bytes are the lane's; NewLane
// gives any of them one. A batch holds one parameter set for all its
// lanes — CAWT's thresholds, MPC's basal — so a caller with
// patient-specific parameters builds one batch per patient. The scalar
// forms they replaced live on in the tests as oracles.
//
// The lane-independence invariant: a lane's StepBatch verdicts — alarms,
// hazards, margins, rule attributions, and confidences — do not depend
// on the batch width or on which lanes share a call, so a fleet can
// run a session alone or in any shard without changing a single trace
// (TestFleetBatchedMonitorMatchesPerSession,
// TestBatchCAWTMatchesPerSession, TestBatchGuidelineMatchesOracle,
// TestBatchMPCMatchesOracle). Offline, Replay and ReplayBatch drive the
// two shapes over recorded traces with one observation builder and one
// pre-basal warning, so batched replay returns Replay's verdicts.
//
// The one-evaluation invariant: the streaming context-aware monitors
// own exactly one rule-stream evaluation per cycle, and alarm, hazard
// prediction, signed robustness margin, arg-min rule, fired-rule
// diagnostics, and (via StreamVerdict / StreamVerdictLane) fleet
// telemetry are all views of that single evaluation — nothing in the
// system evaluates the Safety Context Specification twice for the same
// cycle.
//
//fleetvet:deterministic
package monitor
