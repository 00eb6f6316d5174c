package fleetd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// TestServerSnapshotEndpoint drives POST /v1/tenants/{id}/snapshot: the
// tenant's live sessions are captured at a gate without stopping the
// fleet, the sealed envelope decodes to exactly that tenant's sessions,
// and an unknown tenant answers 404. A tenant that names its monitor
// ("monitor":"cawot") is served by the same shard-batched monitor as
// every other tenant, so it snapshots like them, and the whole server
// still drains to a snapshot that restores slot-exact — one such tenant
// used to make DrainToSnapshot fail and lose every tenant's state.
func TestServerSnapshotEndpoint(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	drained := false
	defer func() {
		if drained {
			return
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	if code, _ := request(t, ts, "", http.MethodPost, "/v1/tenants/ghost/snapshot", ""); code != http.StatusNotFound {
		t.Fatalf("snapshot of unknown tenant = %d, want 404", code)
	}

	if code, _ := request(t, ts, "", http.MethodPut, "/v1/tenants/acme", `{"patients":[0,2],"scenarios":[0,1]}`); code != http.StatusCreated {
		t.Fatal("PUT acme failed")
	}
	waitFor(t, "acme sessions to admit", func() bool { return tenantLive(t, ts, "", "acme")() == 4 })

	code, body := request(t, ts, "", http.MethodPost, "/v1/tenants/acme/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot = %d (%s)", code, body)
	}
	var resp snapshotJSON
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Sessions != 4 || resp.Bytes != len(resp.Snapshot) {
		t.Fatalf("snapshot response = %d sessions / %d bytes, want 4 sessions", resp.Sessions, resp.Bytes)
	}
	fs, err := fleet.DecodeFleetSnapshot(resp.Snapshot)
	if err != nil {
		t.Fatalf("returned envelope does not decode: %v", err)
	}
	if len(fs.Sessions) != 4 {
		t.Fatalf("decoded %d sessions, want 4", len(fs.Sessions))
	}
	for _, ss := range fs.Sessions {
		if ss.Group != "acme" {
			t.Fatalf("snapshot leaked a %q session", ss.Group)
		}
		if len(ss.State) == 0 {
			t.Fatalf("slot %d has empty component state", ss.Slot)
		}
	}

	// The capture is non-disruptive: the tenant is still fully live and a
	// second capture succeeds.
	if n := tenantLive(t, ts, "", "acme")(); n != 4 {
		t.Fatalf("tenant shrank to %d after snapshot", n)
	}
	if code, _ := request(t, ts, "", http.MethodPost, "/v1/tenants/acme/snapshot", ""); code != http.StatusOK {
		t.Fatal("second snapshot failed")
	}

	// A tenant naming the monitor snapshots like any other.
	if code, _ := request(t, ts, "", http.MethodPut, "/v1/tenants/zen", `{"patients":[1],"scenarios":[2],"monitor":"cawot"}`); code != http.StatusCreated {
		t.Fatal("PUT zen failed")
	}
	waitFor(t, "zen session to admit", func() bool { return tenantLive(t, ts, "", "zen")() == 1 })
	code, body = request(t, ts, "", http.MethodPost, "/v1/tenants/zen/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot of the cawot tenant = %d (%s), want 200", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Sessions != 1 {
		t.Fatalf("snapshot of the cawot tenant: %d sessions (%v), want 1", resp.Sessions, err)
	}

	// And the whole server drains to a snapshot that restores slot-exact.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained = true
	snap, err := srv.DrainToSnapshot(drainCtx)
	if err != nil {
		t.Fatalf("DrainToSnapshot with a cawot tenant: %v", err)
	}
	if len(snap.Fleet.Sessions) != 5 || snap.Tenants["zen"].Monitor != MonitorCAWOT {
		t.Fatalf("snapshot holds %d sessions and zen spec %+v, want 5 sessions and the cawot monitor",
			len(snap.Fleet.Sessions), snap.Tenants["zen"])
	}
	decoded, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Restore = decoded
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv2.Drain(drainCtx); err != nil {
			t.Errorf("drain restored server: %v", err)
		}
	}()
	checkSlotExact(t, decoded, srv2)
}

// checkSlotExact asserts that a server restored from snap runs exactly
// the snapshot's slots per tenant — had the reconciler evicted and
// re-admitted, the fleet's never-reused slot numbering would have moved
// on — and that the restore rejected nothing.
func checkSlotExact(t *testing.T, snap *ServerSnapshot, srv *Server) {
	t.Helper()
	// The reconciler's first pass runs as it starts; give it a tick, then
	// let any operation it issued land at a gate.
	time.Sleep(2 * reconcilePeriod)
	waitFor(t, "reconciler operations to apply", func() bool { return srv.adm.PendingOps() == 0 })
	wantSlots := map[string][]int{}
	for _, ss := range snap.Fleet.Sessions {
		wantSlots[ss.Group] = append(wantSlots[ss.Group], ss.Slot)
	}
	gotSlots := map[string][]int{}
	for _, ls := range srv.adm.Live() {
		gotSlots[ls.Group] = append(gotSlots[ls.Group], ls.Slot)
	}
	for group, want := range wantSlots {
		got := gotSlots[group]
		sort.Ints(got)
		sort.Ints(want)
		if !slices.Equal(got, want) {
			t.Fatalf("group %s: restored slots %v, want %v (reconciler churned the restore)", group, got, want)
		}
	}
	if n, _ := srv.adm.Rejected(); n != 0 {
		t.Fatalf("restore produced %d rejections", n)
	}
}

// TestServerDrainToSnapshotRestore is the control-plane resume loop:
// drain a converged two-tenant server to a sealed snapshot, seed a
// fresh server from it, and check the registry, the live slot set
// (slot-exact — the reconciler must not churn a converged restore), and
// the telemetry stream all resume.
func TestServerDrainToSnapshotRestore(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	if code, _ := request(t, ts, "", http.MethodPut, "/v1/tenants/acme", `{"patients":[0,2],"scenarios":[0,1],"mitigate":true}`); code != http.StatusCreated {
		t.Fatal("PUT acme failed")
	}
	if code, _ := request(t, ts, "", http.MethodPut, "/v1/tenants/zen", `{"patients":[1],"scenarios":[2,3]}`); code != http.StatusCreated {
		t.Fatal("PUT zen failed")
	}
	waitFor(t, "both tenants to admit", func() bool {
		return tenantLive(t, ts, "", "acme")() == 4 && tenantLive(t, ts, "", "zen")() == 2
	})

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := srv.DrainToSnapshot(drainCtx)
	if err != nil {
		t.Fatalf("DrainToSnapshot: %v", err)
	}
	ts.Close()
	if len(snap.Fleet.Sessions) != 6 || len(snap.Tenants) != 2 {
		t.Fatalf("snapshot holds %d sessions / %d tenants, want 6 / 2", len(snap.Fleet.Sessions), len(snap.Tenants))
	}
	if _, err := srv.DrainToSnapshot(drainCtx); err == nil {
		t.Fatal("second DrainToSnapshot should refuse")
	}

	// The sealed envelope round-trips through the decoder.
	sealed := snap.Encode()
	decoded, err := DecodeSnapshot(sealed)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if len(decoded.Tenants) != 2 || decoded.Seed != cfg.Seed || decoded.Platform != cfg.Platform.Name {
		t.Fatalf("decoded snapshot header = %+v", decoded)
	}
	if !decoded.Tenants["acme"].Mitigate || len(decoded.Tenants["zen"].Scenarios) != 2 {
		t.Fatalf("tenant specs did not survive the round trip: %+v", decoded.Tenants)
	}

	// Config guard: restoring under a different seed must fail loudly.
	badCfg := testConfig()
	badCfg.Seed = cfg.Seed + 1
	badCfg.Restore = decoded
	if _, err := New(badCfg); err == nil || !strings.Contains(err.Error(), "Seed") {
		t.Fatalf("restore with a different seed: err = %v, want a Seed mismatch", err)
	}

	// Restore into a fresh server: same config, snapshot attached.
	cfg2 := testConfig()
	cfg2.Restore = decoded
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer func() {
		drainCtx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel2()
		if err := srv2.Drain(drainCtx2); err != nil {
			t.Errorf("drain restored server: %v", err)
		}
	}()

	// The registry resumed: both tenants answer without a re-PUT.
	code, body := request(t, ts2, "", http.MethodGet, "/v1/tenants/acme", "")
	if code != http.StatusOK {
		t.Fatalf("restored GET acme = %d (%s)", code, body)
	}
	waitFor(t, "restored tenants to be live", func() bool {
		return tenantLive(t, ts2, "", "acme")() == 4 && tenantLive(t, ts2, "", "zen")() == 2
	})

	// Slot-exact resume: the restored live set carries the snapshot's
	// slot numbers.
	checkSlotExact(t, decoded, srv2)

	// The telemetry stream resumed: a subscriber sees tenant-tagged
	// events from the restored sessions.
	for _, ln := range streamLines(t, ts2, "", "acme", "", 3) {
		var ev struct {
			Group string `json:"group"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad restored telemetry line: %v", err)
		}
		if ev.Group != "acme" {
			t.Fatalf("restored stream crossed tenants: %q", ev.Group)
		}
	}
}

// TestDecodeSnapshotRejects pins the loud-failure surface of the
// control-plane decoder: a bare fleet snapshot, corrupt bytes, and
// truncations all error instead of producing a half-parsed registry.
func TestDecodeSnapshotRejects(t *testing.T) {
	bare := (&fleet.FleetSnapshot{NextSlot: 3}).Encode()
	if _, err := DecodeSnapshot(bare); err == nil {
		t.Fatal("bare fleet snapshot accepted as a control-plane snapshot")
	}

	good := (&ServerSnapshot{
		Platform:   "glucosym",
		Steps:      3,
		Seed:       7,
		SinkEpoch:  2,
		AdmitEvery: 2,
		Tenants:    map[string]TenantSpec{"acme": {Patients: []int{0}, Scenarios: []int{1}}},
		Fleet:      &fleet.FleetSnapshot{NextSlot: 1},
	}).Encode()
	if _, err := DecodeSnapshot(good); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	for n := 0; n < len(good); n += 11 {
		if _, err := DecodeSnapshot(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}
