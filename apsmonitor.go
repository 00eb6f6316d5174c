// Package apsmonitor is a Go implementation of "Data-driven Design of
// Context-aware Monitors for Hazard Prediction in Artificial Pancreas
// Systems" (Zhou et al., DSN 2021): context-aware safety monitors for
// closed-loop insulin delivery that detect unsafe control actions before
// they become hypo-/hyperglycemia hazards, with their decision thresholds
// learned from fault-injected simulation traces.
//
// The package is a facade over the full system:
//
//   - two virtual-patient simulators (a Glucosym-style Medtronic Virtual
//     Patient model and a UVA-Padova S2013-style model) with ten-patient
//     synthetic cohorts;
//   - two controllers (OpenAPS-style temp-basal and hospital basal-bolus);
//   - a closed-loop engine, source-level fault-injection campaigns, and
//     risk-index hazard labeling;
//   - a bounded-time STL engine with robustness semantics and a parser;
//   - L-BFGS-B threshold learning with the TMEE tightness loss;
//   - the full monitor suite (CAWT, CAWOT, Guideline, MPC, DT, MLP, LSTM)
//     plus hazard mitigation, and the paper's evaluation metrics.
//
// # Quick start
//
//	traces, err := apsmonitor.RunCampaign(apsmonitor.CampaignConfig{
//		Platform:  apsmonitor.MustPlatform("glucosym"),
//		Patients:  []int{0},
//		Scenarios: apsmonitor.QuickScenarios(20),
//	})
//
// then learn a monitor with BuildSuite and evaluate it with EvaluateAll.
// See examples/ for runnable programs and DESIGN.md for the experiment
// index.
package apsmonitor

import (
	"context"
	"io"

	"repro/internal/closedloop"
	"repro/internal/control"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/risk"
	"repro/internal/scs"
	"repro/internal/stl"
	"repro/internal/stllearn"
	"repro/internal/trace"
)

// Core data model.
type (
	// Trace is one closed-loop simulation run with per-cycle samples.
	Trace = trace.Trace
	// Sample is one control-cycle record.
	Sample = trace.Sample
	// Action is the discrete control-action vocabulary u1..u4.
	Action = trace.Action
	// HazardType distinguishes H1 (hypo) from H2 (hyper).
	HazardType = trace.HazardType
	// FaultInfo annotates a trace with its injection scenario.
	FaultInfo = trace.FaultInfo
)

// Control actions and hazard types.
const (
	ActionDecrease = trace.ActionDecrease
	ActionIncrease = trace.ActionIncrease
	ActionStop     = trace.ActionStop
	ActionKeep     = trace.ActionKeep

	HazardNone = trace.HazardNone
	HazardH1   = trace.HazardH1
	HazardH2   = trace.HazardH2
)

// Closed-loop simulation.
type (
	// LoopConfig assembles one simulation run.
	LoopConfig = closedloop.Config
	// MitigationConfig enables Algorithm 1 hazard mitigation.
	MitigationConfig = closedloop.MitigationConfig
	// Monitor is the safety-monitor contract.
	Monitor = closedloop.Monitor
	// Observation is the per-cycle monitor input.
	Observation = closedloop.Observation
	// Verdict is the per-cycle monitor output.
	Verdict = closedloop.Verdict
	// Patient is the virtual-patient surface.
	Patient = closedloop.Patient
	// Controller is the APS controller surface.
	Controller = control.Controller
)

// RunLoop executes one closed-loop simulation.
func RunLoop(cfg LoopConfig) (*Trace, error) { return closedloop.Run(cfg) }

// Fault injection.
type (
	// Fault describes one injection scenario (Table II).
	Fault = fault.Fault
	// FaultKind enumerates truncate/hold/max/min/add/sub.
	FaultKind = fault.Kind
	// Scenario couples a fault with an initial condition.
	Scenario = fault.Scenario
	// Program is a scenario program: an ordered timeline of typed
	// disturbance segments (the fleet's native scenario form).
	Program = fault.Program
	// ProgramSegment is one typed entry of a program timeline.
	ProgramSegment = fault.Segment
)

// Fault kinds of Table II.
const (
	FaultTruncate = fault.KindTruncate
	FaultHold     = fault.KindHold
	FaultMax      = fault.KindMax
	FaultMin      = fault.KindMin
	FaultAdd      = fault.KindAdd
	FaultSub      = fault.KindSub
)

// FullCampaign enumerates the paper's 882-scenario per-patient matrix.
func FullCampaign() []Scenario { return fault.Campaign(nil) }

// QuickScenarios thins the full campaign to one in k scenarios.
func QuickScenarios(k int) []Scenario { return experiment.ScenarioSubset(k) }

// Programs bridges enum scenarios into scenario-program form — the type
// FleetConfig.Scenarios takes. The bridged programs execute
// bit-identically to the enum path.
func Programs(scs []Scenario) []Program { return fault.Programs(scs) }

// ParsePrograms parses scenario programs from their canonical text form
// (the fleetsim -scenario-file format; see internal/fault).
func ParsePrograms(text string) ([]Program, error) { return fault.ParsePrograms(text) }

// Platforms and campaigns.
type (
	// Platform couples a patient cohort with its controller.
	Platform = experiment.Platform
	// CampaignConfig describes a fault-injection campaign; its
	// NewBatchMonitor attaches one batch monitor per fleet shard (e.g.
	// NewBatchCAWTMonitor) for every session of the campaign.
	CampaignConfig = experiment.CampaignConfig
	// Suite holds the trained monitor collection for one platform.
	Suite = experiment.Suite
	// SuiteConfig tunes monitor training.
	SuiteConfig = experiment.SuiteConfig
	// Eval is one monitor's metric bundle.
	Eval = experiment.Eval
)

// GlucosymPlatform is the MVP-cohort + OpenAPS test bed.
func GlucosymPlatform() Platform { return experiment.Glucosym() }

// T1DS2013Platform is the Dalla Man cohort + Basal-Bolus test bed.
func T1DS2013Platform() Platform { return experiment.T1DS2013() }

// PlatformByName resolves "glucosym" or "t1ds2013".
func PlatformByName(name string) (Platform, error) { return experiment.PlatformByName(name) }

// MustPlatform is PlatformByName for statically known names.
func MustPlatform(name string) Platform {
	p, err := experiment.PlatformByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// RunCampaign executes a fault-injection campaign and returns labeled
// traces in deterministic order. Campaigns run on the fleet engine with
// one run-to-completion session per patient x scenario pair.
func RunCampaign(cfg CampaignConfig) ([]*Trace, error) { return experiment.Run(cfg) }

// Fleet engine: streaming concurrent sessions (see internal/fleet and
// DESIGN.md). RunCampaign is the batch special case; RunFleet exposes
// the full engine — session replication, continuous serving mode,
// per-session sensor noise, per-shard batched monitor inference, and
// sink delivery (FleetConfig.Sinks paced by FleetConfig.SinkEpoch:
// per-worker event buffers merged in canonical parallelism-independent
// order at epoch barriers, so finite and serving fleets alike get
// contention-free, deterministic event streams with bounded memory).
type (
	// FleetConfig describes a fleet run.
	FleetConfig = fleet.Config
	// FleetResult aggregates a fleet run's traces and counters.
	FleetResult = fleet.Result
	// FleetEvent is one entry of the progress/hazard event stream.
	FleetEvent = fleet.Event
	// FleetEventKind enumerates fleet lifecycle events.
	FleetEventKind = fleet.EventKind
	// FleetTelemetryConfig attaches streaming STL hazard telemetry to
	// every fleet session.
	FleetTelemetryConfig = fleet.TelemetryConfig
	// BatchMonitor is the batched-inference monitor contract.
	BatchMonitor = monitor.BatchMonitor
	// FleetSink consumes the fleet's event stream (FleetConfig.Sinks,
	// the engine's only event output): Emit receives every event
	// serially, in canonical merged order at each epoch barrier, and
	// Flush runs when the fleet stops. See NewFleetLogSink,
	// NewFleetRingSink, and NewFleetHistSink for the shipped
	// implementations.
	FleetSink = fleet.Sink
	// FleetLogSink appends events as JSON lines to a writer.
	FleetLogSink = fleet.LogSink
	// FleetRingSink retains the newest N events in a fixed-size ring.
	FleetRingSink = fleet.RingSink
	// FleetHistSink aggregates robustness margins into per-patient
	// histograms.
	FleetHistSink = fleet.HistSink
	// FleetAlert records one margin sample below a FleetHistSink's
	// configured alert floor (FleetHistSink.SetAlertFloor).
	FleetAlert = fleet.Alert
	// FleetAdmissions is the runtime admission/eviction controller of a
	// continuous fleet (FleetConfig.Admissions): Admit/Evict/EvictGroup
	// grow and shrink the live slot set at lock-step admission gates
	// while the fleet runs.
	FleetAdmissions = fleet.Admissions
	// FleetAdmitSpec describes one session to admit into a running
	// fleet: its coordinates, group tag and mitigation, or a captured
	// session to resume (Restore). Every admitted session runs on a
	// lane of the fleet's own monitor (FleetConfig.NewBatchMonitor).
	FleetAdmitSpec = fleet.AdmitSpec
	// FleetLiveSession is one live slot of an admission-controlled
	// fleet.
	FleetLiveSession = fleet.LiveSession
	// FleetReject records an admission the gate refused.
	FleetReject = fleet.Reject
	// FleetSessionSnapshot is one live session's bit-exact checkpoint
	// (FleetAdmitSpec.Restore migrates one into a running fleet).
	FleetSessionSnapshot = fleet.SessionSnapshot
	// FleetSnapshot is a drained fleet's checkpoint: every live session
	// at its exact cycle plus the sink completion cursor. Produce one
	// with FleetAdmissions.Drain / DrainAt; resume it with
	// FleetConfig.Restore under the same master seed and scenario table
	// and the sink stream continues byte-identically.
	FleetSnapshot = fleet.FleetSnapshot
	// FleetDrainResult is the outcome of a fleet drain or group-snapshot
	// request (FleetAdmissions.Drain / SnapshotGroup).
	FleetDrainResult = fleet.DrainResult
)

// DecodeFleetSnapshot opens and parses a sealed fleet snapshot
// (FleetSnapshot.Encode), failing loudly on corruption or a
// format-version mismatch.
func DecodeFleetSnapshot(data []byte) (*FleetSnapshot, error) {
	return fleet.DecodeFleetSnapshot(data)
}

// NewFleetAdmissions creates a runtime admission controller to set on
// FleetConfig.Admissions (requires FleetConfig.Continuous and
// FleetConfig.MaxSessions).
func NewFleetAdmissions() *FleetAdmissions { return fleet.NewAdmissions() }

// NewFleetLogSink creates an append-only JSONL sink over a writer (a
// file, a pipe, a network connection). The caller closes the writer
// after RunFleet returns.
func NewFleetLogSink(w io.Writer) *FleetLogSink { return fleet.NewLogSink(w) }

// FleetLogRotation bounds a file-backed log sink: size/age rotation
// triggers and a retained-file count, so continuous serving never grows
// one JSONL file forever.
type FleetLogRotation = fleet.RotationPolicy

// NewRotatingFleetLogSink opens (or resumes) a JSONL file owned by the
// sink, rotating and retiring it per the policy. Close the sink after
// RunFleet returns.
func NewRotatingFleetLogSink(path string, pol FleetLogRotation) (*FleetLogSink, error) {
	return fleet.NewRotatingLogSink(path, pol)
}

// NewFleetRingSink creates a bounded snapshot sink retaining the last n
// events.
func NewFleetRingSink(n int) (*FleetRingSink, error) { return fleet.NewRingSink(n) }

// NewFleetHistSink creates a per-patient margin-histogram sink over the
// range [lo, hi) with the given bin count.
func NewFleetHistSink(lo, hi float64, bins int) (*FleetHistSink, error) {
	return fleet.NewHistSink(lo, hi, bins)
}

// Fleet event kinds.
const (
	FleetSessionStart = fleet.EventSessionStart
	FleetAlarm        = fleet.EventAlarm
	FleetHazard       = fleet.EventHazard
	FleetSessionDone  = fleet.EventSessionDone
	FleetProgress     = fleet.EventProgress
	FleetRobustness   = fleet.EventRobustness
	FleetSessionEvict = fleet.EventSessionEvict
)

// RunFleet executes a fleet of concurrent closed-loop sessions.
func RunFleet(ctx context.Context, cfg FleetConfig) (FleetResult, error) {
	return fleet.Run(ctx, cfg)
}

// FleetPlatform adapts a campaign platform for the fleet engine.
func FleetPlatform(p Platform) fleet.Platform { return fleet.Platform(p) }

// RunFaultFree runs the fault-free scenario set for a platform.
func RunFaultFree(p Platform, patients []int) ([]*Trace, error) {
	return experiment.FaultFree(p, patients, 0)
}

// BuildSuite trains the full monitor suite from labeled traces.
func BuildSuite(p Platform, training, faultFree []*Trace, cfg SuiteConfig) (*Suite, error) {
	return experiment.BuildSuite(p, training, faultFree, cfg)
}

// MonitorNames lists the suite's monitors in the paper's order.
var MonitorNames = experiment.MonitorNames

// Safety Context Specification and learning.
type (
	// Rule is one Table I Safety Context Specification row.
	Rule = scs.Rule
	// SCSState is the per-cycle context vector µ(x) plus the issued
	// action, the input of rule evaluation and
	// SCSBatchStreamSet.PushLanes.
	SCSState = scs.State
	// Thresholds maps rule IDs to learned β values.
	Thresholds = scs.Thresholds
	// LearnConfig tunes threshold learning.
	LearnConfig = stllearn.Config
	// LearnReport summarizes a learning run.
	LearnReport = stllearn.Report
)

// TableI returns the twelve Safety Context Specification rules.
func TableI() []Rule { return scs.TableI() }

// SCSStateFromSample converts a recorded sample to a rule-evaluation
// state (sensed CGM as the observable glucose).
func SCSStateFromSample(s *Sample) SCSState { return scs.StateFromSample(s) }

// LearnThresholds fits rule thresholds from labeled traces with
// L-BFGS-B under the configured tightness loss (TMEE by default).
func LearnThresholds(rules []Rule, traces []*Trace, cfg LearnConfig) (Thresholds, LearnReport, error) {
	return stllearn.Learn(rules, traces, cfg)
}

// NewCAWTMonitor builds the context-aware monitor with learned
// thresholds: a one-lane view of NewBatchCAWTMonitor's monitor.
func NewCAWTMonitor(rules []Rule, th Thresholds) (Monitor, error) {
	return monitor.NewCAWT(rules, th, scs.Params{})
}

// NewCAWOTMonitor builds the context-aware baseline with default
// thresholds.
func NewCAWOTMonitor(rules []Rule) (Monitor, error) {
	return monitor.NewCAWOT(rules, scs.Params{})
}

// NewBatchCAWTMonitor builds the shard-batched context-aware monitor
// with learned thresholds: one struct-of-arrays rule evaluation per
// control cycle serves a whole fleet shard, bit-identical per lane to
// NewCAWTMonitor (use via FleetConfig.NewBatchMonitor).
func NewBatchCAWTMonitor(rules []Rule, th Thresholds) (BatchMonitor, error) {
	return monitor.NewBatchCAWT(rules, th, scs.Params{})
}

// NewBatchCAWOTMonitor is the shard-batched context-aware baseline with
// default thresholds.
func NewBatchCAWOTMonitor(rules []Rule) (BatchMonitor, error) {
	return monitor.NewBatchCAWOT(rules, scs.Params{})
}

// STL.
type (
	// STLFormula is a bounded-time STL formula.
	STLFormula = stl.Formula
	// STLTrace is a sampled multi-variable signal.
	STLTrace = stl.Trace
	// STLMonitor evaluates a past-only formula online, one sample per
	// control cycle, on the streaming engine: O(1) amortized per pushed
	// sample, O(window) state.
	STLMonitor = stl.OnlineMonitor
	// SCSStreamVerdict is the per-cycle, per-lane aggregate of an
	// SCSBatchStreamSet.
	SCSStreamVerdict = scs.StreamVerdict
	// STLBatchStreamGroup evaluates many past-only formulas across a
	// whole shard of independent sessions in one struct-of-arrays push,
	// with a hash-consed node DAG: identical subformulas share one
	// stateful node, evaluated once per push. Width 1 serves one session.
	STLBatchStreamGroup = stl.BatchStreamGroup
	// SCSBatchStreamSet evaluates a Safety Context Specification across
	// many session lanes in one batched push, yielding per-cycle minimum
	// robustness margins. Width 1 serves one session.
	SCSBatchStreamSet = scs.BatchStreamSet
)

// ParseSTL parses the package's STL concrete syntax.
func ParseSTL(src string) (STLFormula, error) { return stl.Parse(src) }

// MustParseSTL is ParseSTL for statically known formulas.
func MustParseSTL(src string) STLFormula { return stl.MustParse(src) }

// NewSTLTrace creates an empty signal trace with the given sampling
// period in minutes.
func NewSTLTrace(dtMin float64) (*STLTrace, error) { return stl.NewTrace(dtMin) }

// NewSTLMonitor builds an online monitor for a past-only formula.
func NewSTLMonitor(f STLFormula, dtMin float64) (*STLMonitor, error) {
	return stl.NewOnlineMonitor(f, dtMin)
}

// NewSTLBatchStreamGroup creates an empty batched stream group at
// sampling period dtMin minutes with the given session-lane count; add
// formulas with Add, advance lanes together with PushLanes.
func NewSTLBatchStreamGroup(dtMin float64, width int) (*STLBatchStreamGroup, error) {
	return stl.NewBatchStreamGroup(dtMin, width)
}

// NewSCSBatchStreamSet compiles a rule set's STL bodies for batched
// evaluation across width session lanes (nil thresholds select the
// rules' defaults).
func NewSCSBatchStreamSet(rules []Rule, th Thresholds, dtMin float64, width int) (*SCSBatchStreamSet, error) {
	return scs.NewBatchStreamSet(rules, th, scs.Params{}, dtMin, width)
}

// Metrics.
type (
	// Confusion is a binary confusion matrix with FPR/FNR/ACC/F1.
	Confusion = metrics.Confusion
	// TTHStats summarizes the time-to-hazard distribution.
	TTHStats = metrics.TTHStats
	// ReactionStats summarizes monitor timeliness.
	ReactionStats = metrics.ReactionStats
	// MitigationOutcome is a Table VII row.
	MitigationOutcome = metrics.MitigationOutcome
)

// SampleLevelMetrics scores per-sample predictions with the tolerance
// window (0 selects the default one-hour window).
func SampleLevelMetrics(tr *Trace, deltaCycles int) Confusion {
	return metrics.SampleLevel(tr, deltaCycles)
}

// SimulationLevelMetrics scores a whole trace with the two-region scheme.
func SimulationLevelMetrics(tr *Trace) Confusion { return metrics.SimulationLevel(tr) }

// HazardCoverage is the fraction of faulty traces that became hazardous.
func HazardCoverage(traces []*Trace) float64 { return metrics.HazardCoverage(traces) }

// TimeToHazard summarizes the TTH distribution (Fig. 7b).
func TimeToHazard(traces []*Trace) TTHStats { return metrics.TTH(traces) }

// ReactionTime summarizes monitor timeliness (Fig. 9).
func ReactionTime(traces []*Trace) ReactionStats { return metrics.ReactionTime(traces) }

// LabelHazards assigns risk-index hazard labels to a trace
// (Section IV-C2).
func LabelHazards(tr *Trace) { risk.Labeler{}.Label(tr) }

// RiskIndex returns the BG risk function of Eq. 5.
func RiskIndex(bg float64) float64 { return risk.Value(bg) }

// AnnotateMonitor replays a monitor over a recorded trace, writing
// alarms into the samples.
func AnnotateMonitor(m Monitor, tr *Trace) { monitor.Annotate(m, tr) }

// ReadTraceCSV parses a trace previously serialized with Trace.WriteCSV
// (accepting both the current and the pre-basal meta layout).
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }
