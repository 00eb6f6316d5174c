package fleet

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
)

// admissionFleetConfig is a continuous admission-controlled fleet rich
// in every event kind; the sinks and the Admissions controller are
// attached by the caller.
func admissionFleetConfig() Config {
	return Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: thinScenarios(90),
		Sessions:  2, // static slots 0..1; the rest arrive at runtime
		Steps:     5,
		Seed:      3,
		Sensor:    &sensor.Config{NoiseSD: 2},
		NewBatchMonitor: func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
		},
		Telemetry:     &TelemetryConfig{FromMonitor: true},
		Continuous:    true,
		MaxSessions:   8,
		AdmitEvery:    4,
		SinkEpoch:     4,
		ProgressEvery: 3,
	}
}

// TestFleetAdmissionStreamDeterministicAcrossParallelism is the
// control-plane determinism contract: for a FIXED admission schedule
// (operations pinned to gate rounds), the delivered sharded-sink
// stream of a runtime-growing-and-shrinking fleet must be
// byte-identical at every parallelism level — which also makes every
// tenant group's filtered stream byte-identical. The schedule admits
// two tenant groups at different gates, evicts one wholesale, and
// re-admits it, while static slots and replica churn run underneath.
func TestFleetAdmissionStreamDeterministicAcrossParallelism(t *testing.T) {
	const stopAfter = 9 // closed sink epochs before cancellation
	run := func(parallel int) []byte {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		adm := NewAdmissions()
		// The fixed schedule, queued before the run starts.
		adm.AdmitAt(0,
			AdmitSpec{Group: "acme", PatientIdx: 0, ScenIdx: 1},
			AdmitSpec{Group: "acme", PatientIdx: 2, ScenIdx: 2},
		)
		adm.AdmitAt(8,
			AdmitSpec{Group: "zen", PatientIdx: 2, ScenIdx: 0},
			AdmitSpec{Group: "zen", PatientIdx: 0, ScenIdx: 3},
		)
		adm.EvictGroupAt(16, "acme")
		adm.AdmitAt(20, AdmitSpec{Group: "acme", PatientIdx: 0, ScenIdx: 4})

		var buf bytes.Buffer
		cfg := admissionFleetConfig()
		cfg.Parallel = parallel
		cfg.Admissions = adm
		cfg.Sinks = []Sink{NewLogSink(&buf)}
		closed := 0
		cfg.sinkEpochHook = func(epoch, _, _ int) {
			if closed++; closed == stopAfter {
				cancel() // deterministic cut: exactly stopAfter closed epochs deliver
			}
		}
		if _, err := Run(ctx, cfg); err != nil {
			t.Fatalf("Parallel=%d: %v", parallel, err)
		}
		if n, _ := adm.Rejected(); n != 0 {
			t.Fatalf("Parallel=%d: %d unexpected rejections", parallel, n)
		}
		return buf.Bytes()
	}

	golden := run(1)
	if len(golden) == 0 {
		t.Fatal("no events delivered")
	}
	lines := strings.Split(strings.TrimRight(string(golden), "\n"), "\n")
	var evicts, acme, zen, replicas int
	for _, ln := range lines {
		if strings.Contains(ln, `"kind":"evict"`) {
			evicts++
			if !strings.Contains(ln, `"group":"acme"`) {
				t.Errorf("eviction outside the evicted group: %s", ln)
			}
		}
		if strings.Contains(ln, `"group":"acme"`) {
			acme++
		}
		if strings.Contains(ln, `"group":"zen"`) {
			zen++
		}
		if strings.Contains(ln, `"kind":"start"`) && strings.Contains(ln, `"replica":`) {
			replicas++
		}
	}
	if evicts != 2 {
		t.Errorf("%d evict events, want 2 (the first acme admission wave)", evicts)
	}
	if acme == 0 || zen == 0 {
		t.Errorf("tenant streams missing: %d acme, %d zen events", acme, zen)
	}
	if replicas == 0 {
		t.Error("no replica churn in the stream")
	}

	for _, parallel := range []int{2, 3} {
		if got := run(parallel); !bytes.Equal(got, golden) {
			t.Errorf("Parallel=%d: delivered stream differs from Parallel=1 for the same admission schedule", parallel)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetAdmissionCapacityAndSpecRejects pins the gate's admission
// validation: the fleet bound rejects (not queues) admissions beyond
// MaxSessions, out-of-range coordinates reject with a reason, and
// acceptance is first-come in operation order.
func TestFleetAdmissionCapacityAndSpecRejects(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	adm := NewAdmissions()
	cfg := admissionFleetConfig()
	cfg.Telemetry = nil
	cfg.Sensor = nil
	cfg.NewBatchMonitor = nil
	cfg.MaxSessions = 3 // 2 static slots + 1 free
	cfg.AdmitEvery = 2
	cfg.ProgressEvery = 0
	cfg.Admissions = adm

	adm.Admit(
		AdmitSpec{Group: "a", PatientIdx: 0, ScenIdx: 0}, // fills the fleet
		AdmitSpec{Group: "a", PatientIdx: 2, ScenIdx: 1}, // over capacity
	)
	adm.Admit(AdmitSpec{Group: "b", PatientIdx: 99, ScenIdx: 0}) // bad patient
	adm.Admit(AdmitSpec{Group: "b", PatientIdx: 0, ScenIdx: -1}) // bad scenario

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cfg)
		done <- err
	}()
	waitFor(t, "admission ops to apply", func() bool { return adm.PendingOps() == 0 && adm.Gen() > 0 })
	waitFor(t, "fleet at capacity", func() bool { return len(adm.Live()) == 3 })

	n, rejects := adm.Rejected()
	if n != 3 {
		t.Fatalf("%d rejections, want 3: %+v", n, rejects)
	}
	for i, want := range []string{"MaxSessions", "patient index 99", "scenario index -1"} {
		if !strings.Contains(rejects[i].Reason, want) {
			t.Errorf("reject %d reason %q does not mention %q", i, rejects[i].Reason, want)
		}
	}
	live := adm.Live()
	if live[2].Group != "a" || live[2].Slot != 2 {
		t.Errorf("accepted admission got %+v, want group a at slot 2", live[2])
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFleetAdmissionGrowShrinkIdle drives a fleet that starts EMPTY:
// admission wakes it, group eviction empties it again (the fleet parks
// at the gate instead of spinning), a second admission wakes it once
// more, and cancellation shuts it down cleanly. Evictions must surface
// as EventSessionEvict on the live sink stream.
func TestFleetAdmissionGrowShrinkIdle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	adm := NewAdmissions()
	cfg := admissionFleetConfig()
	cfg.Telemetry = nil
	cfg.Sensor = nil
	cfg.NewBatchMonitor = nil
	cfg.Sessions = 0 // start empty
	cfg.MaxSessions = 4
	cfg.AdmitEvery = 2
	cfg.SinkEpoch = 2 // divides AdmitEvery: a gate's events arrive before the next gate
	cfg.ProgressEvery = 0
	cfg.Admissions = adm

	evicted := make(chan Event, 16)
	cfg.Sinks = []Sink{funcSink(func(ev Event) {
		if ev.Kind == EventSessionEvict {
			select {
			case evicted <- ev:
			default:
			}
		}
	})}

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cfg)
		done <- err
	}()

	adm.Admit(
		AdmitSpec{Group: "t1", PatientIdx: 0, ScenIdx: 0},
		AdmitSpec{Group: "t1", PatientIdx: 2, ScenIdx: 1},
	)
	waitFor(t, "first admission", func() bool { return len(adm.Live()) == 2 })

	adm.EvictGroup("t1")
	waitFor(t, "group eviction", func() bool { return len(adm.Live()) == 0 })
	for i := 0; i < 2; i++ {
		select {
		case ev := <-evicted:
			if ev.Group != "t1" {
				t.Errorf("evict event for group %q, want t1", ev.Group)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("no EventSessionEvict on the live stream")
		}
	}

	// The fleet is empty and parked; a fresh admission must wake it.
	adm.Admit(AdmitSpec{Group: "t2", PatientIdx: 0, ScenIdx: 2})
	waitFor(t, "post-idle admission", func() bool {
		live := adm.Live()
		return len(live) == 1 && live[0].Group == "t2"
	})

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFleetConfigValidate is the table test over Config.Validate: every
// contradictory configuration surfaces as an error (fleetd turns these
// into 400s), and a well-formed one passes.
func TestFleetConfigValidate(t *testing.T) {
	valid := func() Config {
		return Config{
			Platform:  glucosymPlatform(),
			Patients:  []int{0},
			Scenarios: thinScenarios(300),
			Steps:     5,
		}
	}
	ring, err := NewRingSink(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the error ("" = must validate)
	}{
		{"valid", func(c *Config) {}, ""},
		{"valid continuous admissions", func(c *Config) {
			c.Continuous = true
			c.Admissions = NewAdmissions()
			c.MaxSessions = 8
			c.AdmitEvery = 4
		}, ""},
		{"empty platform", func(c *Config) { c.Platform = Platform{} }, "incomplete platform"},
		{"negative sessions", func(c *Config) { c.Sessions = -1 }, "negative Sessions"},
		{"negative steps", func(c *Config) { c.Steps = -5 }, "negative Steps"},
		{"negative cycle", func(c *Config) { c.CycleMin = -1 }, "negative CycleMin"},
		{"negative parallel", func(c *Config) { c.Parallel = -2 }, "negative Parallel"},
		{"negative window", func(c *Config) { c.MaxLivePerShard = -1 }, "negative MaxLivePerShard"},
		{"negative progress", func(c *Config) { c.ProgressEvery = -1 }, "negative ProgressEvery"},
		{"negative sink epoch", func(c *Config) {
			c.Sinks = []Sink{ring}
			c.SinkEpoch = -1
		}, "negative SinkEpoch"},
		{"epoch with sinks", func(c *Config) {
			c.Sinks = []Sink{ring}
			c.SinkEpoch = 8
		}, ""},
		{"continuous without scenarios", func(c *Config) {
			c.Continuous = true
			c.Scenarios = nil
		}, "explicit Scenarios"},
		{"telemetry without outputs", func(c *Config) { c.Telemetry = &TelemetryConfig{} }, "requires Sinks"},
		{"frommonitor without monitor", func(c *Config) {
			c.Telemetry = &TelemetryConfig{FromMonitor: true}
			c.Sinks = []Sink{ring}
		}, "FromMonitor requires"},
		{"nil sink", func(c *Config) { c.Sinks = []Sink{nil} }, "nil sink"},
		{"admissions without continuous", func(c *Config) {
			c.Admissions = NewAdmissions()
			c.MaxSessions = 4
		}, "requires Continuous"},
		{"admissions without capacity", func(c *Config) {
			c.Continuous = true
			c.Admissions = NewAdmissions()
		}, "positive MaxSessions"},
		{"capacity below static slots", func(c *Config) {
			c.Continuous = true
			c.Admissions = NewAdmissions()
			c.MaxSessions = 2
			c.Sessions = 5
		}, "below the static Sessions"},
		{"capacity without admissions", func(c *Config) { c.MaxSessions = 4 }, "MaxSessions requires Admissions"},
		{"gate period without admissions", func(c *Config) { c.AdmitEvery = 4 }, "AdmitEvery requires Admissions"},
		{"negative gate period", func(c *Config) {
			c.Continuous = true
			c.Admissions = NewAdmissions()
			c.MaxSessions = 4
			c.AdmitEvery = -1
		}, "negative AdmitEvery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mut(&cfg)
			err := cfg.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Validate() = %v, want nil", err)
			case tc.want != "" && err == nil:
				t.Errorf("Validate() = nil, want error mentioning %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("Validate() = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestFleetAdmissionsRebindRejected pins the one-run-per-controller
// rule: a controller bound to a finished run must refuse a second Run.
func TestFleetAdmissionsRebindRejected(t *testing.T) {
	adm := NewAdmissions()
	cfg := admissionFleetConfig()
	cfg.Telemetry = nil
	cfg.NewBatchMonitor = nil
	cfg.Sensor = nil
	cfg.ProgressEvery = 0
	cfg.Admissions = adm
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := Run(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Errorf("second Run with the same controller: err = %v, want already-bound rejection", err)
	}
}

// ExampleAdmissions shows the runtime admission surface: a continuous
// fleet that starts empty, admits a tenant's sessions, and evicts them.
func ExampleAdmissions() {
	adm := NewAdmissions()
	adm.Admit(AdmitSpec{Group: "tenant-a", PatientIdx: 0, ScenIdx: 0})
	fmt.Println(adm.PendingOps())
	// Output: 1
}
