package experiment

import (
	"context"
	"fmt"

	"repro/internal/closedloop"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/trace"
)

// CampaignConfig describes one fault-injection campaign.
type CampaignConfig struct {
	Platform Platform
	// Patients selects cohort indices; nil means the whole cohort.
	Patients []int
	// Scenarios selects the fault matrix; nil means the full 882-per-
	// patient campaign of Section V-B.
	Scenarios []fault.Scenario
	// Steps per simulation (default 150 = 12.5 h of 5-minute cycles).
	Steps int
	// NewBatchMonitor optionally builds the safety monitor, one batch
	// monitor per fleet shard (fleet.Config.NewBatchMonitor); nil runs
	// without one. Every patient's sessions share it, so a monitor with
	// patient-specific parameters needs one campaign per patient, as
	// Suite.EvaluateMitigation runs.
	NewBatchMonitor func() (monitor.BatchMonitor, error)
	// Mitigate enables Algorithm 1 when a monitor is attached.
	Mitigate bool
	// Mitigation tunes the enabled mitigation (e.g. ScaleByMargin); the
	// Enabled flag itself is owned by Mitigate.
	Mitigation closedloop.MitigationConfig
	// Parallel bounds worker goroutines (default NumCPU).
	Parallel int
}

// FleetConfig translates the campaign description into its fleet
// equivalent: one run-to-completion session per patient x scenario pair,
// traces retained in deterministic order (patients outer, scenarios
// inner). Legacy enum scenarios bridge into scenario programs here, so
// every campaign executes through the compiled-plan path (bit-identical
// to the enum path — the fleet golden differential pins it).
func (c CampaignConfig) FleetConfig() fleet.Config {
	return fleet.Config{
		Platform:        fleet.Platform(c.Platform),
		Patients:        c.Patients,
		Scenarios:       fault.Programs(c.Scenarios),
		Steps:           c.Steps,
		Parallel:        c.Parallel,
		NewBatchMonitor: c.NewBatchMonitor,
		Mitigate:        c.Mitigate,
		Mitigation:      c.Mitigation,
	}
}

// Run executes the campaign on the fleet engine and returns labeled
// traces in deterministic order (patients outer, scenarios inner),
// regardless of scheduling.
func Run(cfg CampaignConfig) ([]*trace.Trace, error) {
	res, err := fleet.Run(context.Background(), cfg.FleetConfig())
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return res.Traces, nil
}

// FaultFree runs the fault-free scenario set (one run per initial BG per
// patient), used for percentile estimation, fault-free training, and the
// OpenAPS resilience baseline.
func FaultFree(platform Platform, patients []int, steps int) ([]*trace.Trace, error) {
	return Run(CampaignConfig{
		Platform:  platform,
		Patients:  patients,
		Scenarios: fault.FaultFreeScenarios(nil),
		Steps:     steps,
	})
}

// ByPatient groups traces by patient ID.
func ByPatient(traces []*trace.Trace) map[string][]*trace.Trace {
	out := make(map[string][]*trace.Trace)
	for _, tr := range traces {
		out[tr.PatientID] = append(out[tr.PatientID], tr)
	}
	return out
}
