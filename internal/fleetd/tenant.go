package fleetd

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/fleet"
)

// serverCycleMin is the control-cycle length every fleetd fleet runs at
// (the fleet default); inline tenant programs compile-check against it.
const serverCycleMin = 5

// MonitorCAWOT names the context-aware without-taper monitor, the
// paper's best-performing configuration and the one monitor the server
// runs.
const MonitorCAWOT = "cawot"

// TenantSpec is a tenant's desired state: every (patient, scenario)
// pair in the cross product runs as one continuously replicating fleet
// session tagged with the tenant's ID.
type TenantSpec struct {
	// Patients are cohort indices on the server's platform.
	Patients []int `json:"patients"`
	// Scenarios are indices into the server's scenario table
	// (GET /v1/status reports its size).
	Scenarios []int `json:"scenarios,omitempty"`
	// Programs are inline scenario programs (the IR of internal/fault)
	// submitted as JSON; each is validated and compile-checked
	// server-side against the fleet's horizon before any session is
	// admitted. A spec may mix table indices and inline programs.
	Programs []fault.Program `json:"programs,omitempty"`
	// Monitor names the safety monitor: "" or "cawot", compatible
	// aliases for the one monitor the server runs, the shard-batched
	// CAWOT over Table I. Any other name is rejected. The name is kept
	// in the registry and in snapshots exactly as written.
	Monitor string `json:"monitor,omitempty"`
	// Mitigate turns alarm-gated mitigation on for the tenant's sessions.
	Mitigate bool `json:"mitigate,omitempty"`
}

// desired returns the number of sessions the spec asks for.
func (s TenantSpec) desired() int {
	return len(s.Patients) * (len(s.Scenarios) + len(s.Programs))
}

// validate checks the spec against the server's platform, scenario
// table, and fleet horizon; errors surface as HTTP 400s.
func (s TenantSpec) validate(numPatients, numScenarios, steps int, cycleMin float64) error {
	if len(s.Patients) == 0 {
		return fmt.Errorf("fleetd: spec declares no patients")
	}
	if len(s.Scenarios) == 0 && len(s.Programs) == 0 {
		return fmt.Errorf("fleetd: spec declares no scenarios or programs")
	}
	for _, p := range s.Patients {
		if p < 0 || p >= numPatients {
			return fmt.Errorf("fleetd: patient index %d outside cohort [0, %d)", p, numPatients)
		}
	}
	for _, sc := range s.Scenarios {
		if sc < 0 || sc >= numScenarios {
			return fmt.Errorf("fleetd: scenario index %d outside the table [0, %d)", sc, numScenarios)
		}
	}
	if steps == 0 {
		steps = 288
	}
	if cycleMin == 0 {
		cycleMin = serverCycleMin
	}
	progSeen := make(map[string]int, len(s.Programs))
	for i, pr := range s.Programs {
		// Compile revalidates the program and proves it executable on the
		// fleet horizon before the spec is accepted.
		if _, err := pr.Compile(steps, cycleMin); err != nil {
			return fmt.Errorf("fleetd: programs[%d]: %w", i, err)
		}
		if j, dup := progSeen[pr.Key()]; dup {
			return fmt.Errorf("fleetd: duplicate program %q at programs[%d] and [%d]", pr.Name, j, i)
		}
		progSeen[pr.Key()] = i
	}
	switch s.Monitor {
	case "", MonitorCAWOT:
	default:
		return fmt.Errorf("fleetd: unknown monitor %q (want %q or empty for the server default)", s.Monitor, MonitorCAWOT)
	}
	seen := make(map[[2]int]bool, s.desired())
	for _, p := range s.Patients {
		for _, sc := range s.Scenarios {
			k := [2]int{p, sc}
			if seen[k] {
				return fmt.Errorf("fleetd: duplicate (patient %d, scenario %d) in the cross product", p, sc)
			}
			seen[k] = true
		}
	}
	return nil
}

// TenantStatus is the wire shape of GET /v1/tenants/{id}: the declared
// spec plus the reconciler's live view of it.
type TenantStatus struct {
	ID   string     `json:"id"`
	Spec TenantSpec `json:"spec"`
	// Desired and Live count sessions; the reconciler converges Live
	// toward Desired at fleet admission gates.
	Desired int `json:"desired"`
	Live    int `json:"live"`
	// Slots are the fleet slot indices currently running for the tenant.
	Slots []int `json:"slots"`
	// StreamDropped counts telemetry events dropped across the tenant's
	// (possibly slow) stream subscribers; the fleet never blocks on them.
	StreamDropped int64 `json:"stream_dropped"`
	// AlertCount is the lifetime number of margin-floor breaches
	// (0 when alerting is disabled server-side).
	AlertCount int64 `json:"alert_count"`
}

// Status is the wire shape of GET /v1/status: the fleet-wide view.
type Status struct {
	Platform    string   `json:"platform"`
	Scenarios   int      `json:"scenarios"`
	MaxSessions int      `json:"max_sessions"`
	Live        int      `json:"live"`
	Tenants     []string `json:"tenants"`
	// Desired is the fleet-wide declared session total across tenants.
	Desired int `json:"desired"`
	// Generation counts applied fleet-shape changes (admissions or
	// evictions that landed at a gate).
	Generation int64 `json:"generation"`
	// Rejected counts admissions the fleet bounced (capacity races or
	// invalid coordinates that slipped past API validation).
	Rejected int64 `json:"rejected"`
	// StreamDropped totals telemetry drops across all subscribers.
	StreamDropped int64 `json:"stream_dropped"`
	// AlertFloor echoes the armed margin floor; null when disabled.
	AlertFloor *float64 `json:"alert_floor,omitempty"`
	// AlertPct echoes the armed adaptive percentile floor; null when
	// disabled.
	AlertPct *float64 `json:"alert_pct,omitempty"`
	Draining bool     `json:"draining"`
}

// tenantIDOK constrains tenant IDs to path- and log-safe names.
func tenantIDOK(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// specSessions expands a tenant's spec into fleet admission specs in
// declaration order (patients outer; table scenarios then inline
// programs inner).
func specSessions(id string, spec TenantSpec) []fleet.AdmitSpec {
	out := make([]fleet.AdmitSpec, 0, spec.desired())
	for _, p := range spec.Patients {
		for _, sc := range spec.Scenarios {
			out = append(out, fleet.AdmitSpec{
				Group: id, PatientIdx: p, ScenIdx: sc, Mitigate: spec.Mitigate,
			})
		}
		for i := range spec.Programs {
			pr := spec.Programs[i]
			out = append(out, fleet.AdmitSpec{
				Group: id, PatientIdx: p, ScenIdx: -1, Program: &pr, Mitigate: spec.Mitigate,
			})
		}
	}
	return out
}
