package fleetd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/closedloop"
	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/sim/glucosym"
)

// testPlatform mirrors experiment.Glucosym without importing experiment.
func testPlatform() fleet.Platform {
	return fleet.Platform{
		Name:        "glucosym",
		NumPatients: glucosym.NumPatients,
		NewPatient: func(idx int) (closedloop.Patient, error) {
			return glucosym.New(idx)
		},
		NewBatchPatient: func(lanes int) (sim.BatchPatient, error) {
			return glucosym.NewBatch(lanes)
		},
		NewController: func(basal float64) (control.Controller, error) {
			return control.NewOpenAPS(control.OpenAPSConfig{Basal: basal, ISF: 50})
		},
	}
}

// thinScenarios picks every k-th scenario of the full campaign, in
// program form (the server's native scenario-table type).
func thinScenarios(k int) []fault.Program {
	all := fault.CampaignPrograms(nil)
	var out []fault.Program
	for i := 0; i < len(all); i += k {
		out = append(out, all[i])
	}
	return out
}

// testConfig is a small, fast server: short replicas, tight gates and
// epochs, margin alerting armed.
func testConfig() Config {
	return Config{
		Platform:    testPlatform(),
		Scenarios:   thinScenarios(90),
		MaxSessions: 6,
		Parallel:    2,
		Steps:       3,
		Seed:        7,
		SinkEpoch:   2,
		AdmitEvery:  2,
		AlertFloor:  -0.5,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// request performs one API call with the bearer token attached.
func request(t *testing.T, ts *httptest.Server, token, method, path, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// tenantLive polls the tenant endpoint for its live session count.
func tenantLive(t *testing.T, ts *httptest.Server, token, id string) func() int {
	return func() int {
		code, body := request(t, ts, token, http.MethodGet, "/v1/tenants/"+id, "")
		if code != http.StatusOK {
			return -1
		}
		var st TenantStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st.Live
	}
}

// TestServerEndToEnd drives the full tenant lifecycle over HTTP: auth,
// spec validation, admission, telemetry streaming (JSONL and SSE),
// capacity control, alerts, eviction, and graceful drain.
func TestServerEndToEnd(t *testing.T) {
	const token = "s3cr3t"
	cfg := testConfig()
	cfg.Token = token
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Auth: /v1 requires the bearer token, /healthz never does.
	if code, _ := request(t, ts, "", http.MethodGet, "/v1/status", ""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated status = %d, want 401", code)
	}
	if code, _ := request(t, ts, "wrong", http.MethodGet, "/v1/status", ""); code != http.StatusUnauthorized {
		t.Fatalf("wrong-token status = %d, want 401", code)
	}
	if code, _ := request(t, ts, "", http.MethodGet, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}

	// Contradictory specs become 400s before the fleet ever sees them.
	for _, bad := range []string{
		`{"patients":[],"scenarios":[0]}`,
		`{"patients":[0],"scenarios":[9999]}`,
		`{"patients":[-1],"scenarios":[0]}`,
		`{"patients":[0],"scenarios":[0],"monitor":"crystal-ball"}`,
		`{"patients":[0],"scenarios":[0],"bogus":true}`,
		`not json`,
	} {
		if code, _ := request(t, ts, token, http.MethodPut, "/v1/tenants/acme", bad); code != http.StatusBadRequest {
			t.Fatalf("PUT %s = %d, want 400", bad, code)
		}
	}
	if code, _ := request(t, ts, token, http.MethodPut, "/v1/tenants/bad%20id", `{"patients":[0],"scenarios":[0]}`); code != http.StatusBadRequest {
		t.Fatal("malformed tenant id accepted")
	}

	// Admit a tenant and watch the reconciler converge.
	code, body := request(t, ts, token, http.MethodPut, "/v1/tenants/acme",
		`{"patients":[0,2],"scenarios":[0,1],"mitigate":true}`)
	if code != http.StatusCreated {
		t.Fatalf("PUT acme = %d (%s), want 201", code, body)
	}
	waitFor(t, "acme sessions to admit", func() bool { return tenantLive(t, ts, token, "acme")() == 4 })

	// Capacity: a spec that would push the fleet past MaxSessions is
	// rejected with 409 and leaves the registry untouched.
	if code, _ := request(t, ts, token, http.MethodPut, "/v1/tenants/zen",
		`{"patients":[0,1,2],"scenarios":[0,1,2]}`); code != http.StatusConflict {
		t.Fatalf("over-capacity PUT = %d, want 409", code)
	}
	code, _ = request(t, ts, token, http.MethodPut, "/v1/tenants/zen", `{"patients":[1],"scenarios":[2,3]}`)
	if code != http.StatusCreated {
		t.Fatalf("PUT zen = %d, want 201", code)
	}
	waitFor(t, "zen sessions to admit", func() bool { return tenantLive(t, ts, token, "zen")() == 2 })

	// JSONL telemetry: every line is a well-formed fleet event tagged
	// with the subscribed tenant, never another tenant's.
	lines := streamLines(t, ts, token, "acme", "", 5)
	for _, ln := range lines {
		var ev struct {
			Kind  string `json:"kind"`
			Group string `json:"group"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad telemetry line %q: %v", ln, err)
		}
		if ev.Group != "acme" {
			t.Fatalf("tenant acme received group %q event", ev.Group)
		}
	}
	// SSE framing: the same stream with an event-stream Accept header.
	for _, ln := range streamLines(t, ts, token, "zen", "text/event-stream", 2) {
		if !strings.HasPrefix(ln, "data: {") {
			t.Fatalf("SSE line %q lacks data: framing", ln)
		}
	}

	// Status reflects both tenants.
	code, body = request(t, ts, token, http.MethodGet, "/v1/status", "")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Live != 6 || st.Desired != 6 || len(st.Tenants) != 2 || st.Tenants[0] != "acme" || st.Tenants[1] != "zen" {
		t.Fatalf("status = %+v, want 6 live across [acme zen]", st)
	}
	if st.AlertFloor == nil || *st.AlertFloor != -0.5 {
		t.Fatalf("status alert floor = %v, want -0.5", st.AlertFloor)
	}

	// Alerts endpoint: armed, and well-formed whether or not a margin
	// has breached yet.
	code, body = request(t, ts, token, http.MethodGet, "/v1/tenants/acme/alerts", "")
	if code != http.StatusOK {
		t.Fatalf("alerts = %d", code)
	}
	var alerts struct {
		Enabled bool    `json:"enabled"`
		Floor   float64 `json:"floor"`
		Count   int64   `json:"count"`
	}
	if err := json.Unmarshal(body, &alerts); err != nil {
		t.Fatal(err)
	}
	if !alerts.Enabled || alerts.Floor != -0.5 {
		t.Fatalf("alerts = %+v, want enabled at floor -0.5", alerts)
	}

	// Shrink acme to one session, then delete it outright.
	if code, _ := request(t, ts, token, http.MethodPut, "/v1/tenants/acme", `{"patients":[0],"scenarios":[0]}`); code != http.StatusOK {
		t.Fatal("shrinking PUT should return 200 for an existing tenant")
	}
	waitFor(t, "acme to shrink", func() bool { return tenantLive(t, ts, token, "acme")() == 1 })
	if code, _ := request(t, ts, token, http.MethodDelete, "/v1/tenants/acme", ""); code != http.StatusNoContent {
		t.Fatal("DELETE acme failed")
	}
	if code, _ := request(t, ts, token, http.MethodDelete, "/v1/tenants/acme", ""); code != http.StatusNotFound {
		t.Fatal("double DELETE should 404")
	}
	waitFor(t, "acme sessions to evict", func() bool {
		code, _ := request(t, ts, token, http.MethodGet, "/v1/tenants/acme", "")
		live := 0
		for _, ls := range srv.adm.Live() {
			if ls.Group == "acme" {
				live++
			}
		}
		return code == http.StatusNotFound && live == 0
	})

	// Drain: fleet stops cleanly, health goes red, streams end.
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := request(t, ts, token, http.MethodGet, "/healthz", ""); code != http.StatusServiceUnavailable {
		t.Fatal("healthz should report the stopped fleet")
	}
	if code, _ := request(t, ts, token, http.MethodGet, "/v1/tenants/zen/telemetry", ""); code != http.StatusServiceUnavailable {
		t.Fatal("telemetry after drain should 503")
	}
}

// TestServerPercentileAlerts arms only the adaptive percentile floor:
// status and alerts must surface the quantile (and no fixed floor),
// and a tenant's live floor must appear once its own margin
// distribution has enough samples.
func TestServerPercentileAlerts(t *testing.T) {
	if _, err := New(Config{
		Platform: testPlatform(), Scenarios: thinScenarios(90),
		MaxSessions: 2, AlertFloor: math.NaN(), AlertPct: 1.5,
	}); err == nil {
		t.Fatal("AlertPct outside (0,1) should be rejected")
	}

	cfg := testConfig()
	cfg.AlertFloor = math.NaN()
	cfg.AlertPct = 0.25
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := request(t, ts, "", http.MethodPut, "/v1/tenants/acme",
		`{"patients":[0,2],"scenarios":[0,1]}`); code != http.StatusCreated {
		t.Fatal("PUT acme failed")
	}
	waitFor(t, "acme sessions to admit", func() bool { return tenantLive(t, ts, "", "acme")() == 4 })

	code, body := request(t, ts, "", http.MethodGet, "/v1/status", "")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.AlertFloor != nil {
		t.Fatalf("fixed floor %v surfaced with only the percentile armed", *st.AlertFloor)
	}
	if st.AlertPct == nil || *st.AlertPct != 0.25 {
		t.Fatalf("status alert pct = %v, want 0.25", st.AlertPct)
	}

	// The adaptive floor goes live once the tenant's histogram holds
	// the default minimum sample count; the continuous fleet gets
	// there on its own.
	var alerts struct {
		Enabled  bool     `json:"enabled"`
		Floor    float64  `json:"floor"`
		Pct      float64  `json:"pct"`
		PctFloor *float64 `json:"pct_floor"`
	}
	waitFor(t, "adaptive floor to go live", func() bool {
		code, body := request(t, ts, "", http.MethodGet, "/v1/tenants/acme/alerts", "")
		if code != http.StatusOK {
			t.Fatalf("alerts = %d", code)
		}
		if err := json.Unmarshal(body, &alerts); err != nil {
			t.Fatal(err)
		}
		return alerts.PctFloor != nil
	})
	if !alerts.Enabled || alerts.Pct != 0.25 || alerts.Floor != 0 {
		t.Fatalf("alerts = %+v, want enabled at pct 0.25 with no fixed floor", alerts)
	}
	if h := srv.alerts.forTenant("acme"); h != nil {
		if floor, live := h.AlertPercentileFloor(); !live || floor != *alerts.PctFloor {
			t.Fatalf("wire floor %v disagrees with sink floor %v (live %v)", *alerts.PctFloor, floor, live)
		}
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// streamLines reads n telemetry lines from a tenant's stream.
func streamLines(t *testing.T, ts *httptest.Server, token, id, accept string, n int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/tenants/"+id+"/telemetry", nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry = %d", resp.StatusCode)
	}
	if accept == "" && resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("telemetry content type %q", resp.Header.Get("Content-Type"))
	}
	sc := bufio.NewScanner(resp.Body)
	var out []string
	for len(out) < n && sc.Scan() {
		if sc.Text() == "" {
			continue // SSE event separator
		}
		out = append(out, sc.Text())
	}
	if len(out) < n {
		t.Fatalf("stream ended after %d/%d lines: %v", len(out), n, sc.Err())
	}
	return out
}

// TestFanoutBackpressure is the unit-level backpressure contract: with
// one stalled subscriber and one live one, Emit never blocks, the live
// subscriber's stream is byte-identical to the emitted event sequence,
// the stalled subscriber holds exactly its limit and its losses are
// counted per tenant and fleet-wide, and no event reaches another
// tenant.
func TestFanoutBackpressure(t *testing.T) {
	f := newFanout()
	stalled := f.subscribe("acme", 2) // tiny limit, never drained
	live := f.subscribe("acme", 1024)
	other := f.subscribe("zen", 1024)

	var want bytes.Buffer
	const events = 100
	for i := 0; i < events; i++ {
		ev := fleet.Event{Kind: fleet.EventRobustness, Session: i, Group: "acme", Step: i, Margin: -0.25}
		line, err := fleet.EncodeJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		done := make(chan error, 1)
		go func() { done <- f.Emit(ev) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Emit blocked on a stalled subscriber")
		}
	}

	if held, _ := stalled.take(nil); len(held) != 2 {
		t.Errorf("stalled subscriber queued %d, want its full limit of 2", len(held))
	}
	if leaked, _ := other.take(nil); len(leaked) != 0 {
		t.Error("zen subscriber received acme events")
	}
	f.closeAll()
	if got, _ := drainStream(f, live, ""); got.Body.String() != want.String() {
		t.Error("live subscriber's stream is not byte-identical to the emitted sequence")
	}
	if n := f.droppedFor("acme"); n != events-2 {
		t.Errorf("dropped %d for the stalled subscriber, want %d (limit 2)", n, events-2)
	}
	if f.droppedTotal() != f.droppedFor("acme") {
		t.Error("fleet-wide drop total disagrees with the per-tenant counter")
	}
}

// TestServerStalledSubscriberSoak is the HTTP-level soak (satellite of
// the telemetry surface): a client that never reads its response soaks
// up its buffers and then loses events, while the fleet keeps stepping
// and a live client keeps receiving. The dead client must never stall
// either.
func TestServerStalledSubscriberSoak(t *testing.T) {
	cfg := testConfig()
	cfg.AlertFloor = math.NaN()
	cfg.StreamBuffer = 4 // drops start as soon as the response path clogs
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	if code, _ := request(t, ts, "", http.MethodPut, "/v1/tenants/soak", `{"patients":[0,1],"scenarios":[0,1]}`); code != http.StatusCreated {
		t.Fatal("PUT soak failed")
	}
	waitFor(t, "soak sessions to admit", func() bool { return tenantLive(t, ts, "", "soak")() == 4 })

	// The dead client: opens the stream, then never reads a byte.
	deadCtx, killDead := context.WithCancel(context.Background())
	defer killDead()
	deadReq, err := http.NewRequestWithContext(deadCtx, http.MethodGet, ts.URL+"/v1/tenants/soak/telemetry", nil)
	if err != nil {
		t.Fatal(err)
	}
	deadResp, err := ts.Client().Do(deadReq)
	if err != nil {
		t.Fatal(err)
	}
	defer deadResp.Body.Close()

	// The fleet must keep advancing and dropping for the dead client...
	waitFor(t, "drops on the stalled stream", func() bool { return srv.fan.droppedFor("soak") > 0 })
	genBefore := srv.adm.Gen()
	_ = genBefore // the fleet's generation only moves on shape changes; steps prove liveness below

	// ...while a live client still receives well-formed tenant events.
	for _, ln := range streamLines(t, ts, "", "soak", "", 10) {
		var ev struct {
			Group string `json:"group"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad line on the live stream during soak: %v", err)
		}
		if ev.Group != "soak" {
			t.Fatalf("live stream crossed tenants: %q", ev.Group)
		}
	}
	if srv.fan.droppedFor("soak") == 0 {
		t.Fatal("stalled subscriber lost nothing — backpressure accounting is vacuous")
	}

	// The drop counter is visible on the tenant's status surface.
	code, body := request(t, ts, "", http.MethodGet, "/v1/tenants/soak", "")
	if code != http.StatusOK {
		t.Fatal("GET soak failed")
	}
	var st TenantStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.StreamDropped == 0 {
		t.Fatal("tenant status hides the stream drops")
	}
}

// TestTenantSpecValidate pins spec validation shapes.
func TestTenantSpecValidate(t *testing.T) {
	meal := fault.Program{Name: "lunch", Segments: []fault.Segment{
		{Kind: fault.SegMeal, Value: 45, Start: 5, Duration: 6},
	}}
	cases := []struct {
		name string
		spec TenantSpec
		ok   bool
	}{
		{"valid", TenantSpec{Patients: []int{0, 1}, Scenarios: []int{0}}, true},
		{"valid cawot", TenantSpec{Patients: []int{0}, Scenarios: []int{0}, Monitor: MonitorCAWOT}, true},
		{"no patients", TenantSpec{Scenarios: []int{0}}, false},
		{"no scenarios", TenantSpec{Patients: []int{0}}, false},
		{"patient out of cohort", TenantSpec{Patients: []int{99}, Scenarios: []int{0}}, false},
		{"negative scenario", TenantSpec{Patients: []int{0}, Scenarios: []int{-1}}, false},
		{"unknown monitor", TenantSpec{Patients: []int{0}, Scenarios: []int{0}, Monitor: "oracle"}, false},
		{"duplicate pair", TenantSpec{Patients: []int{0, 0}, Scenarios: []int{1}}, false},
		{"valid inline program", TenantSpec{Patients: []int{0}, Programs: []fault.Program{meal}}, true},
		{"mixed table and program", TenantSpec{Patients: []int{0}, Scenarios: []int{0}, Programs: []fault.Program{meal}}, true},
		{"invalid program", TenantSpec{Patients: []int{0}, Programs: []fault.Program{
			{Segments: []fault.Segment{{Kind: fault.SegMeal, Value: -1, Start: 0, Duration: 3}}},
		}}, false},
		{"duplicate program", TenantSpec{Patients: []int{0}, Programs: []fault.Program{meal, meal}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.validate(20, 10, 60, serverCycleMin); (err == nil) != tc.ok {
				t.Errorf("validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	for _, id := range []string{"acme", "a.b-c_9", strings.Repeat("x", 64)} {
		if !tenantIDOK(id) {
			t.Errorf("id %q rejected", id)
		}
	}
	for _, id := range []string{"", "a b", "a/b", strings.Repeat("x", 65), "ümlaut"} {
		if tenantIDOK(id) {
			t.Errorf("id %q accepted", id)
		}
	}
}

// TestServerRejectsBadConfig pins constructor-time validation: the
// assembled fleet config is validated before anything starts.
func TestServerRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 0
	if _, err := New(cfg); err == nil {
		t.Error("MaxSessions 0 accepted")
	}
	cfg = testConfig()
	cfg.Scenarios = nil
	if _, err := New(cfg); err == nil {
		t.Error("empty scenario table accepted")
	}
	cfg = testConfig()
	cfg.SinkEpoch = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative SinkEpoch accepted")
	}
}
