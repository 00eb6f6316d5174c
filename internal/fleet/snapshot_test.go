package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
	"repro/internal/snapshot"
)

// updateGolden rewrites the checked-in snapshot fixture. Run
//
//	go test ./internal/fleet -run GoldenFixture -update
//
// after an intentional format change — and bump snapshot.Version with
// it, or the cross-version guard has nothing to catch.
var updateGolden = flag.Bool("update", false, "rewrite golden snapshot fixtures")

// kindScenarios builds one scenario per fault kind so a small session
// matrix still exercises every injection mode.
func kindScenarios() []fault.Program {
	all := fault.Campaign(nil)
	seen := make(map[fault.Kind]bool)
	var out []fault.Scenario
	for _, sc := range all {
		if !seen[sc.Fault.Kind] {
			seen[sc.Fault.Kind] = true
			out = append(out, sc)
		}
	}
	return fault.Programs(out)
}

// snapshotFleetConfig is the golden-differential fleet: continuous and
// admission-controlled with shard-batched monitors, sensor noise, and
// mitigation on — every stateful component the snapshot must capture.
func snapshotFleetConfig(noise bool) Config {
	cfg := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: kindScenarios(), // all six fault kinds
		Sessions:  6,               // static slots cover every kind (patient 0)
		Steps:     5,
		Seed:      7,
		Mitigate:  true,
		NewBatchMonitor: func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
		},
		Telemetry:   &TelemetryConfig{Every: 2}, // shard-batched STL lanes
		Continuous:  true,
		MaxSessions: 10,
		AdmitEvery:  4,
		SinkEpoch:   4,
	}
	if noise {
		cfg.Sensor = &sensor.Config{NoiseSD: 2}
	}
	return cfg
}

// snapshotSchedule queues the fixed admission schedule shifted left by
// base rounds: the drained-and-restored half of the differential re-runs
// the post-drain tail of the same schedule at original-round minus the
// drain round.
func snapshotSchedule(adm *Admissions, base int) {
	at := func(round int) int { return round - base }
	if at(0) >= 0 {
		adm.AdmitAt(at(0),
			AdmitSpec{Group: "acme", PatientIdx: 0, ScenIdx: 1},
			AdmitSpec{Group: "acme", PatientIdx: 2, ScenIdx: 2},
		)
	}
	if at(8) >= 0 {
		adm.AdmitAt(at(8), AdmitSpec{Group: "zen", PatientIdx: 2, ScenIdx: 0})
	}
	if at(16) >= 0 {
		adm.EvictGroupAt(at(16), "acme")
	}
	if at(20) >= 0 {
		adm.AdmitAt(at(20), AdmitSpec{Group: "acme", PatientIdx: 0, ScenIdx: 4})
	}
}

// runEpochs runs cfg until closed sink epochs deliver, then cancels;
// returns the delivered stream bytes.
func runEpochs(t *testing.T, cfg Config, adm *Admissions, epochs int) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	cfg.Admissions = adm
	cfg.Sinks = []Sink{NewLogSink(&buf)}
	closed := 0
	cfg.sinkEpochHook = func(epoch, _, _ int) {
		if closed++; closed == epochs {
			cancel()
		}
	}
	if _, err := Run(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetSnapshotResumeGoldenDifferential is the headline resume
// contract: drain a mid-flight fleet to a snapshot at an epoch-aligned
// gate, restore it into a fresh fleet (same Seed, tail of the same
// admission schedule), and the concatenation of the two delivered sink
// streams must be byte-identical to the uninterrupted run — across
// parallelism levels, with and without sensor noise, over all six fault
// kinds with mitigation on; and the drained snapshot bytes must not
// depend on the draining fleet's parallelism.
func TestFleetSnapshotResumeGoldenDifferential(t *testing.T) {
	const (
		drainRound  = 16 // multiple of AdmitEvery (4) and SinkEpoch (4)
		totalEpochs = 9
		preEpochs   = drainRound / 4 // epochs closed before the drain gate
	)
	for _, noise := range []bool{true, false} {
		name := "noise"
		if !noise {
			name = "clean"
		}
		t.Run(name, func(t *testing.T) {
			uninterrupted := func(parallel int) []byte {
				adm := NewAdmissions()
				snapshotSchedule(adm, 0)
				cfg := snapshotFleetConfig(noise)
				cfg.Parallel = parallel
				return runEpochs(t, cfg, adm, totalEpochs)
			}
			golden := uninterrupted(1)
			if len(golden) == 0 {
				t.Fatal("no events delivered")
			}
			for p := 2; p <= 3; p++ {
				if got := uninterrupted(p); !bytes.Equal(got, golden) {
					t.Fatalf("uninterrupted Parallel=%d stream differs from Parallel=1", p)
				}
			}

			// drained records each drain's encoded snapshot by
			// parallelism.
			drained := make(map[int][]byte)
			resumed := func(drainParallel, restoreParallel int) []byte {
				// First half: run to the drain gate and capture the fleet.
				adm := NewAdmissions()
				snapshotSchedule(adm, 0)
				res := adm.DrainAt(drainRound)
				var firstHalf bytes.Buffer
				cfg := snapshotFleetConfig(noise)
				cfg.Parallel = drainParallel
				cfg.Admissions = adm
				cfg.Sinks = []Sink{NewLogSink(&firstHalf)}
				if _, err := Run(context.Background(), cfg); err != nil {
					t.Fatalf("drain run: %v", err)
				}
				dr := <-res
				if dr.Err != nil {
					t.Fatalf("drain: %v", dr.Err)
				}
				snap := dr.Snapshot
				if len(snap.Sessions) == 0 {
					t.Fatal("drain captured no sessions")
				}
				drained[drainParallel] = snap.Encode()
				midFlight := false
				for _, ss := range snap.Sessions {
					if len(ss.State) == 0 {
						t.Fatalf("slot %d: empty state payload", ss.Slot)
					}
					if noise && ss.Draws == 0 {
						t.Fatalf("slot %d: no RNG draws recorded with sensor noise on", ss.Slot)
					}
					if ss.Replica > 0 {
						midFlight = true
					}
				}
				if !midFlight {
					t.Fatal("no replica churn before the drain; the differential would not cover refill continuity")
				}

				// Second half: restore into a fresh fleet and finish the
				// schedule.
				adm2 := NewAdmissions()
				snapshotSchedule(adm2, drainRound)
				cfg2 := snapshotFleetConfig(noise)
				cfg2.Parallel = restoreParallel
				cfg2.Sessions = 0
				cfg2.Restore = snap
				secondHalf := runEpochs(t, cfg2, adm2, totalEpochs-preEpochs)
				return append(firstHalf.Bytes(), secondHalf...)
			}

			for _, c := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {2, 3}, {3, 1}} {
				if got := resumed(c[0], c[1]); !bytes.Equal(got, golden) {
					t.Errorf("drain@P=%d restore@P=%d: concatenated stream differs from the uninterrupted run", c[0], c[1])
				}
			}
			for p := 2; p <= 3; p++ {
				if !bytes.Equal(drained[p], drained[1]) {
					t.Errorf("drain@P=%d: snapshot differs from the drain at P=1", p)
				}
			}
		})
	}
}

// TestFleetSnapshotEncodingRoundTrip pins the snapshot containers: a
// fleet snapshot and a session snapshot survive Encode/Decode exactly,
// and corrupt or wrong-version envelopes fail loudly.
func TestFleetSnapshotEncodingRoundTrip(t *testing.T) {
	fs := &FleetSnapshot{
		Completed: 42,
		NextSlot:  9,
		Sessions: []SessionSnapshot{
			{Slot: 3, PatientIdx: 1, ScenIdx: 2, Replica: 4, Group: "acme",
				Mitigate: true, Alarmed: true, Seed: -77, Draws: 123, State: []byte{1, 2, 3}},
			{Slot: 8, PatientIdx: 0, ScenIdx: 0, Group: "", State: []byte{}},
		},
	}
	data := fs.Encode()
	got, err := DecodeFleetSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != fs.Completed || got.NextSlot != fs.NextSlot || len(got.Sessions) != 2 {
		t.Fatalf("fleet header round-trip: got %+v", got)
	}
	a, b := got.Sessions[0], fs.Sessions[0]
	if a.Slot != b.Slot || a.Group != b.Group || a.Seed != b.Seed || a.Draws != b.Draws ||
		!a.Mitigate || !a.Alarmed || !bytes.Equal(a.State, b.State) {
		t.Fatalf("session round-trip: got %+v want %+v", a, b)
	}

	// Bit flip inside the payload: the checksum must catch it.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := DecodeFleetSnapshot(flipped); err == nil {
		t.Error("bit-flipped snapshot decoded without error")
	}

	// Truncation never panics and always errors.
	for n := 0; n < len(data); n += 7 {
		if _, err := DecodeFleetSnapshot(data[:n]); err == nil {
			t.Errorf("truncated snapshot (%d bytes) decoded without error", n)
		}
	}

	ss := &fs.Sessions[0]
	sdata := ss.Encode()
	sgot, err := DecodeSessionSnapshot(sdata)
	if err != nil {
		t.Fatal(err)
	}
	if sgot.Slot != ss.Slot || sgot.Seed != ss.Seed || !bytes.Equal(sgot.State, ss.State) {
		t.Fatalf("session envelope round-trip: got %+v", sgot)
	}
}

// captureGroupSession runs the golden-differential fleet with one
// admitted "mig" session and captures it, without stopping the fleet,
// through a group snapshot at round 8.
func captureGroupSession(t *testing.T) *SessionSnapshot {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	adm := NewAdmissions()
	cfg := snapshotFleetConfig(true)
	cfg.Telemetry = nil // no sinks in this test
	cfg.Sessions = 2
	adm.AdmitAt(0, AdmitSpec{Group: "mig", PatientIdx: 2, ScenIdx: 3})
	res := adm.SnapshotGroupAt(8, "mig")
	cfg.Admissions = adm
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cfg)
		done <- err
	}()
	var dr DrainResult
	select {
	case dr = <-res:
	case err := <-done:
		t.Fatalf("run exited before the group snapshot resolved: %v", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if dr.Err != nil {
		t.Fatal(dr.Err)
	}
	if len(dr.Snapshot.Sessions) != 1 || dr.Snapshot.Sessions[0].Group != "mig" {
		t.Fatalf("group snapshot: %+v", dr.Snapshot.Sessions)
	}
	return &dr.Snapshot.Sessions[0]
}

// TestFleetSnapshotGroupMigration captures one tenant's sessions from a
// live fleet without stopping it, then admits them into a second fleet
// via AdmitSpec.Restore: the migrated sessions resume on fresh slots
// with no duplicate start events, and a corrupted snapshot is rejected
// at the gate with a reason — never fatally.
func TestFleetSnapshotGroupMigration(t *testing.T) {
	sealed := captureGroupSession(t).Encode()

	// Second fleet: admit the captured session plus a corrupt copy.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	corrupt := append([]byte(nil), sealed...)
	corrupt[len(corrupt)-1] ^= 0x01
	adm2 := NewAdmissions()
	adm2.AdmitAt(0,
		AdmitSpec{Group: "migrated", Restore: sealed},
		AdmitSpec{Restore: corrupt},
	)
	cfg2 := snapshotFleetConfig(true)
	cfg2.Telemetry = nil
	cfg2.Sessions = 0
	cfg2.Admissions = adm2

	// SinkEpoch (4) divides AdmitEvery (4): a gate's events arrive before
	// the next gate.
	starts := make(chan Event, 64)
	cfg2.Sinks = []Sink{funcSink(func(ev Event) {
		if ev.Kind == EventSessionStart {
			select {
			case starts <- ev:
			default:
			}
		}
	})}
	done2 := make(chan error, 1)
	go func() {
		_, err := Run(ctx2, cfg2)
		done2 <- err
	}()
	waitFor(t, "migration to apply", func() bool { return adm2.PendingOps() == 0 && adm2.Gen() > 0 })
	waitFor(t, "migrated session live", func() bool {
		live := adm2.Live()
		return len(live) == 1 && live[0].Group == "migrated"
	})
	n, rejects := adm2.Rejected()
	if n != 1 || !strings.Contains(rejects[0].Reason, "corrupt") {
		t.Fatalf("corrupt restore: %d rejections %+v, want 1 mentioning corruption", n, rejects)
	}
	// The migrated session must resume, not restart: its first replica
	// start event (if any churn happened yet) carries Replica > 0, and
	// no Replica == 0 start for the restored slot may appear.
	waitFor(t, "replica churn on the migrated slot", func() bool {
		for {
			select {
			case ev := <-starts:
				if ev.Group == "migrated" && ev.Replica == 0 {
					t.Fatal("restored session emitted a fresh start event")
				}
				if ev.Group == "migrated" && ev.Replica > 0 {
					return true
				}
			default:
				return false
			}
		}
	})
	cancel2()
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
}

// TestFleetAdmitRestoreRejectsNonFiniteIOB: a restore admission whose
// controller IOB clock is NaN must be rejected with a reason naming the
// clock, and the fleet must keep serving. Accepted, the session would
// prune every dose on arrival, so IOB would read 0 and OpenAPS's MaxIOB
// clamp would never engage.
func TestFleetAdmitRestoreRejectsNonFiniteIOB(t *testing.T) {
	ss := captureGroupSession(t)
	// The stepper's bytes open with its step cursor; the monitor's and
	// then the controller's IOB tracker each encode the clock (5 min per
	// step), the dose count and the first dose's midpoint time, 2.5.
	step := snapshot.NewDecoder(ss.State).Int()
	if step < 1 || step > 60 {
		t.Fatalf("captured step %d, want a partial dose history", step)
	}
	enc := snapshot.NewEncoder()
	enc.Float64(5 * float64(step))
	enc.Int(step)
	enc.Float64(2.5)
	tracker := enc.Payload()
	if n := bytes.Count(ss.State, tracker); n != 2 {
		t.Fatalf("found %d IOB tracker headers in the session state, want 2", n)
	}
	poisoned := *ss
	poisoned.State = append([]byte(nil), ss.State...)
	at := bytes.LastIndex(poisoned.State, tracker)
	binary.LittleEndian.PutUint64(poisoned.State[at:], math.Float64bits(math.NaN()))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	adm := NewAdmissions()
	adm.AdmitAt(0,
		AdmitSpec{Group: "poisoned", Restore: poisoned.Encode()},
		AdmitSpec{Group: "fresh", PatientIdx: 0, ScenIdx: 1},
	)
	cfg := snapshotFleetConfig(true)
	cfg.Telemetry = nil
	cfg.Sessions = 0
	cfg.Admissions = adm
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cfg)
		done <- err
	}()
	waitFor(t, "the poisoned restore to resolve", func() bool {
		n, _ := adm.Rejected()
		return n > 0
	})
	n, rejects := adm.Rejected()
	if n != 1 || !strings.Contains(rejects[0].Reason, "iob clock") {
		t.Fatalf("poisoned restore: %d rejections %+v, want 1 naming the iob clock", n, rejects)
	}
	adm.AdmitAt(0, AdmitSpec{Group: "later", PatientIdx: 2, ScenIdx: 0})
	liveGroups := func() map[string]bool {
		groups := map[string]bool{}
		for _, ls := range adm.Live() {
			groups[ls.Group] = true
		}
		return groups
	}
	waitFor(t, "a later admission to go live", func() bool { return liveGroups()["later"] })
	if groups := liveGroups(); groups["poisoned"] || !groups["fresh"] {
		t.Fatalf("live groups %v, want fresh and later without poisoned", groups)
	}
	select {
	case err := <-done:
		t.Fatalf("fleet stopped after the rejected restore: %v", err)
	default:
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFleetSnapshotDrainMisaligned pins the alignment invariant: a
// terminal drain at a gate that is not a multiple of SinkEpoch must
// resolve with an error and leave the fleet running.
func TestFleetSnapshotDrainMisaligned(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	adm := NewAdmissions()
	cfg := snapshotFleetConfig(false)
	cfg.AdmitEvery = 2 // gates at odd multiples of 2 misalign with SinkEpoch 4
	res := adm.DrainAt(2)
	ok := adm.DrainAt(4)
	cfg.Admissions = adm
	var buf bytes.Buffer
	cfg.Sinks = []Sink{NewLogSink(&buf)}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cfg)
		done <- err
	}()
	dr := <-res
	if dr.Err == nil || !strings.Contains(dr.Err.Error(), "not aligned") {
		t.Fatalf("misaligned drain: %+v, want alignment error", dr)
	}
	dr = <-ok
	if dr.Err != nil {
		t.Fatalf("aligned drain after misaligned request: %v", dr.Err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFleetRestoreValidation pins the Config.Restore guard rails:
// restore without admissions, restore with static sessions, and a
// snapshot exceeding MaxSessions all fail loudly before any shard runs.
func TestFleetRestoreValidation(t *testing.T) {
	snap := &FleetSnapshot{NextSlot: 1, Sessions: []SessionSnapshot{{Slot: 0}}}
	base := func() Config {
		cfg := snapshotFleetConfig(false)
		cfg.Telemetry = nil // no sinks attached in this test
		cfg.Sessions = 0
		cfg.Restore = snap
		return cfg
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"without admissions", func(c *Config) {}, "requires Admissions"},
		{"with static sessions", func(c *Config) {
			c.Admissions = NewAdmissions()
			c.Sessions = 3
		}, "leave Sessions zero"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want mention of %q", err, tc.want)
			}
		})
	}

	t.Run("beyond capacity", func(t *testing.T) {
		big := &FleetSnapshot{NextSlot: 99}
		for i := 0; i < 11; i++ {
			big.Sessions = append(big.Sessions, SessionSnapshot{Slot: i})
		}
		cfg := base()
		cfg.Admissions = NewAdmissions()
		cfg.Restore = big // MaxSessions is 10
		_, err := Run(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), "MaxSessions") {
			t.Errorf("Run() = %v, want capacity error", err)
		}
	})

	t.Run("duplicate slot", func(t *testing.T) {
		dup := &FleetSnapshot{NextSlot: 5, Sessions: []SessionSnapshot{{Slot: 2}, {Slot: 2}}}
		cfg := base()
		cfg.Admissions = NewAdmissions()
		cfg.Restore = dup
		_, err := Run(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), "repeats slot") {
			t.Errorf("Run() = %v, want duplicate-slot error", err)
		}
	})
}

// goldenFleetSnapshot drains the reference fleet at gate round 8 and
// returns the captured snapshot.
func goldenFleetSnapshot(t *testing.T, parallel int) *FleetSnapshot {
	t.Helper()
	adm := NewAdmissions()
	snapshotSchedule(adm, 0)
	res := adm.DrainAt(8)
	cfg := snapshotFleetConfig(true)
	cfg.Parallel = parallel
	cfg.Admissions = adm
	var buf bytes.Buffer
	cfg.Sinks = []Sink{NewLogSink(&buf)}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	dr := <-res
	if dr.Err != nil {
		t.Fatal(dr.Err)
	}
	return dr.Snapshot
}

// TestFleetSnapshotGoldenFixture pins the on-disk encoding with a
// checked-in fixture: the reference drain must reproduce the fixture
// byte-for-byte (any layout drift fails here and demands a Version
// bump), snapshot bytes must not depend on Parallel (the canonical
// cross-lane encoding), decode→encode must be the identity, and the
// checked-in snapshot must remain restorable.
func TestFleetSnapshotGoldenFixture(t *testing.T) {
	const path = "testdata/fleet_snapshot_v2.bin"
	data := goldenFleetSnapshot(t, 1).Encode()
	if p3 := goldenFleetSnapshot(t, 3).Encode(); !bytes.Equal(p3, data) {
		t.Fatal("snapshot bytes depend on Parallel; lane layout leaked into the canonical encoding")
	}
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("snapshot encoding drifted from the checked-in v2 fixture; bump snapshot.Version and regenerate with -update")
	}

	fs, err := DecodeFleetSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fs.Encode(), want) {
		t.Fatal("decode->encode of the fixture is not the identity")
	}
	if len(fs.Sessions) == 0 || fs.NextSlot == 0 {
		t.Fatalf("implausible fixture: %d sessions, next slot %d", len(fs.Sessions), fs.NextSlot)
	}

	// The checked-in snapshot must restore into a running fleet.
	adm := NewAdmissions()
	snapshotSchedule(adm, 8)
	cfg := snapshotFleetConfig(true)
	cfg.Sessions = 0
	cfg.Restore = fs
	if got := runEpochs(t, cfg, adm, 2); len(got) == 0 {
		t.Fatal("restored fixture fleet delivered no events")
	}
}

// TestFleetSnapshotVersionGuard pins the cross-version contract at the
// fleet layer: a snapshot stamped with a different format version is
// refused with an error naming both versions.
func TestFleetSnapshotVersionGuard(t *testing.T) {
	data := (&FleetSnapshot{NextSlot: 1}).Encode()
	// The version uvarint sits right after the 4-byte magic; small
	// versions occupy one byte, so bumping it in place (and fixing the
	// checksum) forges a future-format snapshot.
	forged := append([]byte(nil), data...)
	forged[4] = snapshot.Version + 1
	forged = snapshot.Reseal(forged)
	_, err := DecodeFleetSnapshot(forged)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("v%d", snapshot.Version+1)) {
		t.Fatalf("forged version: err = %v, want version mismatch naming v%d", err, snapshot.Version+1)
	}
}
