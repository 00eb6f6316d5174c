package fleetd

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/scs"
)

// Config parameterizes a control-plane server. The zero value is not
// runnable: Platform, Scenarios, and MaxSessions are required.
type Config struct {
	// Platform is the closed-loop test bed every session runs on.
	Platform fleet.Platform
	// Scenarios is the scenario-program table tenant specs index into;
	// tenants may also submit inline programs (TenantSpec.Programs),
	// validated server-side against this fleet's horizon.
	Scenarios []fault.Program
	// MaxSessions bounds the fleet-wide live session total; PUTs whose
	// declared total would exceed it are rejected with 409.
	MaxSessions int
	// Parallel is the fleet worker shard count (0 = GOMAXPROCS-ish
	// fleet default).
	Parallel int
	// Steps is the session length in control cycles; each tenant
	// session replays forever in replicas of this length. Default 288
	// (one day of 5-minute cycles).
	Steps int
	// Seed is the fleet master seed; with a fixed admission history the
	// whole telemetry stream is a deterministic function of it.
	Seed int64
	// SinkEpoch bounds sink buffering: telemetry is merged and
	// delivered every SinkEpoch lock-step rounds. Default 8.
	SinkEpoch int
	// AdmitEvery is the admission-gate period in rounds (0 = fleet
	// default).
	AdmitEvery int
	// Token, when non-empty, requires `Authorization: Bearer <Token>`
	// on every /v1/ endpoint (never on /healthz).
	Token string
	// AlertFloor arms per-tenant margin-floor alerting; NaN disables.
	AlertFloor float64
	// AlertPct arms adaptive per-tenant percentile-floor alerting:
	// each tenant's floor tracks the given quantile of its own margin
	// distribution (must be in (0, 1)). Zero or NaN disables. May be
	// combined with AlertFloor; the fixed floor wins on a double
	// breach.
	AlertPct float64
	// StreamBuffer bounds each telemetry subscriber's queue of events
	// not yet taken by its handler (default 256). The queue grows only
	// as far as the backlog; an event arriving at a full queue is
	// dropped and counted (TenantStatus.StreamDropped), never blocking
	// the fleet.
	StreamBuffer int
	// Restore seeds the server from a drained control-plane snapshot
	// (Server.DrainToSnapshot / DecodeSnapshot) instead of starting
	// empty: the tenant registry resumes, every captured session resumes
	// at its exact cycle on its original slot, and — under the same
	// Platform, Steps, Seed, SinkEpoch, and AdmitEvery, which New
	// validates — the per-tenant telemetry streams continue
	// byte-identically where the drained server cut them.
	Restore *ServerSnapshot
}

// Server is one control-plane instance wrapping one continuous fleet
// run. Create with New, start with Start, serve Handler, stop with
// Drain.
type Server struct {
	cfg    Config
	adm    *fleet.Admissions
	reg    *registry
	fan    *fanout
	alerts *alertTable // nil when alerting is disabled
	mux    *http.ServeMux

	cancel      context.CancelFunc
	reconCancel context.CancelFunc
	fleetDone   chan struct{}

	mu       sync.Mutex
	fleetErr error
	draining bool
	started  bool
}

// New validates the configuration and assembles an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Steps == 0 {
		cfg.Steps = 288
	}
	if cfg.SinkEpoch == 0 {
		cfg.SinkEpoch = 8
	}
	if cfg.StreamBuffer == 0 {
		cfg.StreamBuffer = defaultStreamBuffer
	}
	s := &Server{
		cfg:       cfg,
		adm:       fleet.NewAdmissions(),
		reg:       newRegistry(),
		fan:       newFanout(),
		fleetDone: make(chan struct{}),
	}
	pct := cfg.AlertPct
	if pct == 0 {
		pct = math.NaN()
	}
	if !math.IsNaN(pct) && !(pct > 0 && pct < 1) {
		return nil, fmt.Errorf("fleetd: AlertPct %v outside (0, 1)", cfg.AlertPct)
	}
	if !math.IsNaN(cfg.AlertFloor) || !math.IsNaN(pct) {
		s.alerts = newAlertTable(cfg.AlertFloor, pct)
	}
	if cfg.Restore != nil {
		if err := s.validateRestore(cfg.Restore); err != nil {
			return nil, err
		}
		// Seed the registry before the reconciler ever runs: desired
		// state equals the drained state, so a converged snapshot
		// restores without a single admission or eviction.
		for id, spec := range cfg.Restore.Tenants { //fleetvet:nondeterministic map insert order; the registry re-sorts on every list()
			s.reg.put(id, spec)
		}
	}
	if err := s.fleetConfig().Validate(); err != nil {
		return nil, fmt.Errorf("fleetd: %w", err)
	}
	s.routes()
	return s, nil
}

// fleetConfig assembles the continuous admission-controlled fleet the
// server fronts.
func (s *Server) fleetConfig() fleet.Config {
	sinks := []fleet.Sink{s.fan}
	if s.alerts != nil {
		sinks = append(sinks, s.alerts)
	}
	var restore *fleet.FleetSnapshot
	if s.cfg.Restore != nil {
		restore = s.cfg.Restore.Fleet
	}
	return fleet.Config{
		Platform:  s.cfg.Platform,
		Scenarios: s.cfg.Scenarios,
		Sessions:  0, // every session arrives through the reconciler
		Restore:   restore,
		Steps:     s.cfg.Steps,
		Seed:      s.cfg.Seed,
		Parallel:  s.cfg.Parallel,
		NewBatchMonitor: func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
		},
		Telemetry:   &fleet.TelemetryConfig{FromMonitor: true},
		Continuous:  true,
		Admissions:  s.adm,
		MaxSessions: s.cfg.MaxSessions,
		AdmitEvery:  s.cfg.AdmitEvery,
		SinkEpoch:   s.cfg.SinkEpoch,
		Sinks:       sinks,
	}
}

// Start launches the fleet engine and the reconcile loop. The server
// runs until Drain; ctx cancellation also stops both.
func (s *Server) Start(ctx context.Context) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("fleetd: server already started")
	}
	s.started = true
	// The reconciler's context is a child of the fleet's: Drain stops
	// both through cancel, while DrainToSnapshot stops only the
	// reconciler and lets the fleet run to its drain gate.
	fleetCtx, cancel := context.WithCancel(ctx)
	reconCtx, reconCancel := context.WithCancel(fleetCtx)
	s.cancel, s.reconCancel = cancel, reconCancel
	s.mu.Unlock()

	go func() {
		_, err := fleet.Run(fleetCtx, s.fleetConfig())
		s.mu.Lock()
		s.fleetErr = err
		s.mu.Unlock()
		close(s.fleetDone)
	}()
	if s.cfg.Restore != nil {
		// The reconciler must not observe an empty fleet before the
		// snapshot seeds the live slot set — it would queue duplicate
		// admissions. Hold it back until the restored sessions are
		// visible (or the fleet failed to start, which is fatal here).
		want := len(s.cfg.Restore.Fleet.Sessions)
		for len(s.adm.Live()) < want {
			select {
			case <-s.fleetDone:
				s.mu.Lock()
				err := s.fleetErr
				s.mu.Unlock()
				return fmt.Errorf("fleetd: restore: fleet failed to start: %w", err)
			case <-time.After(time.Millisecond):
			}
		}
	}
	go s.reconcileLoop(reconCtx)
	return nil
}

// Drain gracefully stops the server: the reconciler and fleet shut
// down, in-flight telemetry streams end, and Drain returns the fleet's
// exit error (nil for a clean cancellation). ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return errors.New("fleetd: server never started")
	}
	s.draining = true
	cancel := s.cancel
	s.mu.Unlock()

	cancel()
	select {
	case <-s.fleetDone:
	case <-ctx.Done():
		s.fan.closeAll()
		return fmt.Errorf("fleetd: drain: %w", ctx.Err())
	}
	s.fan.closeAll()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleetErr
}

// DrainToSnapshot gracefully stops the server through the fleet's
// snapshot drain instead of a plain cancellation: the reconciler stops,
// the fleet stops at its next epoch-aligned admission gate with every
// live session serialized, and the returned control-plane snapshot
// (registry + fleet state) resumes byte-identically through
// Config.Restore. ctx bounds the wait. The server is unusable
// afterwards; telemetry streams end as in Drain.
func (s *Server) DrainToSnapshot(ctx context.Context) (*ServerSnapshot, error) {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil, errors.New("fleetd: server never started")
	}
	if s.draining {
		s.mu.Unlock()
		return nil, errors.New("fleetd: server already draining")
	}
	s.draining = true
	reconCancel, cancel := s.reconCancel, s.cancel
	s.mu.Unlock()

	// Stop the reconciler first so it cannot queue operations behind the
	// drain request; whatever it already queued is re-queued unapplied by
	// the drain gate and simply discarded with the run.
	reconCancel()

	var dr fleet.DrainResult
	attempts := s.cfg.SinkEpoch // gates repeat mod lcm(AdmitEvery, SinkEpoch); SinkEpoch tries always reach an aligned one
	if attempts < 1 {
		attempts = 1
	}
	for i := 0; ; i++ {
		res := s.adm.Drain()
		select {
		case dr = <-res:
		case <-ctx.Done():
			s.fan.closeAll()
			cancel()
			return nil, fmt.Errorf("fleetd: snapshot drain: %w", ctx.Err())
		case <-s.fleetDone:
			s.mu.Lock()
			err := s.fleetErr
			s.mu.Unlock()
			s.fan.closeAll()
			return nil, fmt.Errorf("fleetd: snapshot drain: fleet stopped before the drain gate: %w", err)
		}
		if dr.Err == nil {
			break
		}
		if !errors.Is(dr.Err, fleet.ErrDrainMisaligned) || i+1 >= attempts {
			s.fan.closeAll()
			cancel()
			return nil, fmt.Errorf("fleetd: snapshot drain: %w", dr.Err)
		}
	}

	// The drain gate makes Run return on its own; wait for it, then
	// release the contexts and streams.
	select {
	case <-s.fleetDone:
	case <-ctx.Done():
		s.fan.closeAll()
		cancel()
		return nil, fmt.Errorf("fleetd: snapshot drain: %w", ctx.Err())
	}
	s.fan.closeAll()
	cancel()
	s.mu.Lock()
	ferr := s.fleetErr
	s.mu.Unlock()
	if ferr != nil {
		return nil, fmt.Errorf("fleetd: snapshot drain: %w", ferr)
	}
	_, specs := s.reg.list()
	return &ServerSnapshot{
		Platform:   s.cfg.Platform.Name,
		Steps:      s.cfg.Steps,
		Seed:       s.cfg.Seed,
		SinkEpoch:  s.cfg.SinkEpoch,
		AdmitEvery: s.cfg.AdmitEvery,
		Tenants:    specs,
		Fleet:      dr.Snapshot,
	}, nil
}

// Handler returns the HTTP surface: /healthz plus the bearer-guarded
// /v1/ API.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Token != "" && r.URL.Path != "/healthz" {
			tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.Token)) != 1 {
				httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
				return
			}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// routes wires the endpoint table (Go 1.22 method+wildcard patterns).
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("PUT /v1/tenants/{id}", s.handlePutTenant)
	s.mux.HandleFunc("GET /v1/tenants/{id}", s.handleGetTenant)
	s.mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleDeleteTenant)
	s.mux.HandleFunc("GET /v1/tenants/{id}/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("GET /v1/tenants/{id}/alerts", s.handleAlerts)
	s.mux.HandleFunc("POST /v1/tenants/{id}/snapshot", s.handleSnapshotTenant)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.fleetDone:
		s.mu.Lock()
		err := s.fleetErr
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, fmt.Sprintf("fleet stopped: %v", err))
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	ids, specs := s.reg.list()
	desired := 0
	for _, id := range ids {
		desired += specs[id].desired()
	}
	rejected, _ := s.adm.Rejected()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	st := Status{
		Platform:      s.cfg.Platform.Name,
		Scenarios:     len(s.cfg.Scenarios),
		MaxSessions:   s.cfg.MaxSessions,
		Live:          len(s.adm.Live()),
		Tenants:       ids,
		Desired:       desired,
		Generation:    s.adm.Gen(),
		Rejected:      rejected,
		StreamDropped: s.fan.droppedTotal(),
		Draining:      draining,
	}
	if s.alerts != nil {
		if !math.IsNaN(s.cfg.AlertFloor) {
			floor := s.cfg.AlertFloor
			st.AlertFloor = &floor
		}
		if !math.IsNaN(s.alerts.pct) {
			pct := s.alerts.pct
			st.AlertPct = &pct
		}
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handlePutTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !tenantIDOK(id) {
		httpError(w, http.StatusBadRequest, "tenant id must be 1-64 chars of [a-zA-Z0-9._-]")
		return
	}
	var spec TenantSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad spec: %v", err))
		return
	}
	if err := spec.validate(s.cfg.Platform.NumPatients, len(s.cfg.Scenarios), s.cfg.Steps, serverCycleMin); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Capacity admission control. Concurrent PUTs can race past this
	// check; the fleet's own MaxSessions bound is the backstop and any
	// overflow surfaces in Status.Rejected.
	if total := s.reg.desiredTotal(id, spec); total > s.cfg.MaxSessions {
		httpError(w, http.StatusConflict, fmt.Sprintf(
			"declared total %d exceeds fleet capacity %d", total, s.cfg.MaxSessions))
		return
	}
	_, existed := s.reg.get(id)
	s.reg.put(id, spec)
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, s.tenantStatus(id, spec))
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spec, ok := s.reg.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such tenant")
		return
	}
	writeJSON(w, http.StatusOK, s.tenantStatus(id, spec))
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	if !s.reg.delete(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, "no such tenant")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// tenantStatus assembles the reconciler's live view of one tenant.
func (s *Server) tenantStatus(id string, spec TenantSpec) TenantStatus {
	st := TenantStatus{
		ID: id, Spec: spec, Desired: spec.desired(),
		Slots:         []int{},
		StreamDropped: s.fan.droppedFor(id),
	}
	for _, ls := range s.adm.Live() {
		if ls.Group == id {
			st.Slots = append(st.Slots, ls.Slot)
		}
	}
	st.Live = len(st.Slots)
	if s.alerts != nil {
		if h := s.alerts.forTenant(id); h != nil {
			st.AlertCount = h.AlertCount()
		}
	}
	return st
}

// handleTelemetry streams the tenant's fleet events as JSONL (default)
// or SSE (Accept: text/event-stream) until the client goes away or the
// server drains. The stream is lossy under backpressure by contract:
// events beyond a slow client's StreamBuffer are dropped and counted,
// never queued against the fleet.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.reg.get(id); !ok {
		httpError(w, http.StatusNotFound, "no such tenant")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub := s.fan.subscribe(id, s.cfg.StreamBuffer)
	if sub == nil {
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	defer s.fan.unsubscribe(sub)
	s.fan.stream(w, flusher, r, sub)
}

// snapshotJSON is the wire shape of a tenant snapshot: the sealed
// fleet-snapshot envelope (base64 in JSON) holding every one of the
// tenant's live sessions at one admission gate, ready for
// fleet.AdmitSpec.Restore migration into another fleet.
type snapshotJSON struct {
	Sessions int    `json:"sessions"`
	Bytes    int    `json:"bytes"`
	Snapshot []byte `json:"snapshot"`
}

// handleSnapshotTenant captures one tenant's live sessions at the next
// admission gate without disturbing the fleet: the sessions keep
// running, and the sealed snapshot returns to the caller. The capture
// waits for a gate, so the request completes within one AdmitEvery
// period.
func (s *Server) handleSnapshotTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.reg.get(id); !ok {
		httpError(w, http.StatusNotFound, "no such tenant")
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	res := s.adm.SnapshotGroup(id)
	var dr fleet.DrainResult
	select {
	case dr = <-res:
	case <-r.Context().Done():
		return
	case <-s.fleetDone:
		httpError(w, http.StatusServiceUnavailable, "fleet stopped")
		return
	}
	if dr.Err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("snapshot: %v", dr.Err))
		return
	}
	sealed := dr.Snapshot.Encode()
	writeJSON(w, http.StatusOK, snapshotJSON{
		Sessions: len(dr.Snapshot.Sessions),
		Bytes:    len(sealed),
		Snapshot: sealed,
	})
}

// alertJSON is the wire shape of one margin-floor breach.
type alertJSON struct {
	Session    int     `json:"session"`
	PatientIdx int     `json:"patient"`
	Replica    int     `json:"replica,omitempty"`
	Step       int     `json:"step"`
	Margin     float64 `json:"margin"`
	Rule       int     `json:"rule,omitempty"`
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.reg.get(id); !ok {
		httpError(w, http.StatusNotFound, "no such tenant")
		return
	}
	type resp struct {
		Enabled bool    `json:"enabled"`
		Floor   float64 `json:"floor,omitempty"`
		Pct     float64 `json:"pct,omitempty"`
		// PctFloor is the tenant's live adaptive floor: null until the
		// tenant's margin distribution has enough samples.
		PctFloor *float64    `json:"pct_floor,omitempty"`
		Count    int64       `json:"count"`
		Alerts   []alertJSON `json:"alerts"`
	}
	out := resp{Alerts: []alertJSON{}}
	if s.alerts != nil {
		out.Enabled = true
		if !math.IsNaN(s.cfg.AlertFloor) {
			out.Floor = s.cfg.AlertFloor
		}
		if !math.IsNaN(s.alerts.pct) {
			out.Pct = s.alerts.pct
		}
		if h := s.alerts.forTenant(id); h != nil {
			if floor, live := h.AlertPercentileFloor(); live {
				out.PctFloor = &floor
			}
			out.Count = h.AlertCount()
			for _, al := range h.Alerts() {
				out.Alerts = append(out.Alerts, alertJSON{
					Session: al.Session, PatientIdx: al.PatientIdx, Replica: al.Replica,
					Step: al.Step, Margin: al.Margin, Rule: al.Rule,
				})
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}
