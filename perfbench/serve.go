package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/fleetd"
)

const (
	// serveSinkEpoch and serveAdmitEvery are fleetd's default sink epoch
	// and admission-gate period, stated so the traced run can classify
	// rounds by the barrier they hold.
	serveSinkEpoch  = 8
	serveAdmitEvery = 16
	// serveStreamBuffer lets a subscriber that keeps up on average ride
	// out a burst of epoch merges without dropping a line (fleetd's
	// default of 256 drops about half the base stream).
	serveStreamBuffer = 1 << 15
	// churnPatient is the cohort patient only churn tenants use, so its
	// ConfigureLane marks a churn tenant's admission gate.
	churnPatient = 9
	// serveParallel is the fleet's shard count. With one shard the fleet
	// runs on one vCPU and the HTTP, fan-out and subscriber goroutines on
	// the other: in five alternating pairs of 20 s runs on a 2-vCPU host,
	// one shard's sustained rate stayed within 7 % while two shards'
	// ranged over 18 % (WORKLOADS.md).
	serveParallel = 1
	// httpTimeout bounds every operator call and first-line wait.
	httpTimeout = 10 * time.Second
	// serveWarmCycles is the untimed churn warm-up counted in set-up.
	serveWarmCycles = 8
	// serveRateWindow is the throughput block: the stretch of churn
	// cycles over which one base-stream rate sample is taken. It holds a
	// few churn cycles and dozens of sink epochs, and is short against
	// the host's slow phases (WORKLOADS.md), so the windows' sustained
	// rate sees them.
	serveRateWindow = 200 * time.Millisecond
	// serveThinkMax bounds the churn client's think time before each
	// DELETE, drawn uniformly from the seed. One period of fleetd's
	// 25 ms reconcile ticker is enough to keep the closed loop from
	// phase-locking to that ticker: locked, the admission latency
	// jumps between multiples of the period as the host speeds up or
	// slows down. The next PUT still follows its DELETE at once, so it
	// still meets the pending eviction that defers it to a later tick.
	serveThinkMax = 25 * time.Millisecond
)

// serve runs fleetd in-process behind a loopback listener: a base
// tenant on patients 0-8 streamed by one long-lived subscriber, and one
// closed-loop churn client cycling tenants on patient 9 (PUT, read the
// first telemetry line, POST a snapshot, think, DELETE). Operations are
// HTTP calls plus telemetry lines read; throughput counts the lines.
type serve struct {
	o     options
	table []fault.Program
	base  fleetd.TenantSpec
	cur   *server
}

// server is one running fleetd instance and its base subscriber.
type server struct {
	traced bool
	tr     *tracer
	srv    *fleetd.Server
	hs     *http.Server
	url    string
	client *http.Client // churn client: one connection
	served chan struct{}

	stopBase  context.CancelFunc
	baseDone  chan struct{}
	baseFirst chan struct{}
	baseErr   error // written by the subscriber before baseDone closes
	lines     atomic.Int64
	bytes     atomic.Int64

	mu    sync.Mutex
	gates []int64 // ConfigureLane times of the churn patient
}

func (s *serve) setupReps() int { return 5 }

func (s *serve) setUp() error {
	s.table = fault.CampaignPrograms(nil)
	rng := rand.New(rand.NewSource(derive(s.o.seed, 2)))
	patients, scenarios := 9, 11
	if s.o.small {
		patients, scenarios = 3, 3
	}
	s.base = fleetd.TenantSpec{Scenarios: rng.Perm(len(s.table))[:scenarios]}
	for i := 0; i < patients; i++ {
		s.base.Patients = append(s.base.Patients, i)
	}
	if err := s.start(false); err != nil {
		return err
	}
	warm := phaseResult{spans: &spanLog{}}
	gen := churn{rng: rand.New(rand.NewSource(derive(s.o.seed, 5)))}
	for i := range serveWarmCycles {
		spec, think := gen.next(i, len(s.table))
		s.cycle(s.cur, i, fmt.Sprintf("warm-%02d", i), spec, think, &warm)
	}
	if len(warm.checkErrs) > 0 {
		return fmt.Errorf("warm-up: %s", warm.checkErrs[0])
	}
	return nil
}

func (s *serve) tearDown() {
	if s.cur != nil {
		s.cur.stop()
		s.cur = nil
	}
}

// start launches a server, admits the base tenant and returns once the
// base subscriber has read its first telemetry line.
func (s *serve) start(traced bool) error {
	sv := &server{traced: traced, tr: newTracer(traced), served: make(chan struct{}),
		baseDone: make(chan struct{}), baseFirst: make(chan struct{})}
	plat := experiment.Glucosym()
	if traced {
		sv.tr.epochEvery, sv.tr.gateEvery = serveSinkEpoch, serveAdmitEvery
		sv.tr.onConfigure = func(patientIdx int, at int64) {
			if patientIdx == churnPatient {
				sv.mu.Lock()
				sv.gates = append(sv.gates, at)
				sv.mu.Unlock()
			}
		}
		plat = sv.tr.fleetPlatform(plat)
	}
	srv, err := fleetd.New(fleetd.Config{
		Platform:     fleet.Platform(plat),
		Scenarios:    s.table,
		MaxSessions:  128,
		Parallel:     serveParallel,
		Seed:         derive(s.o.seed, 3),
		SinkEpoch:    serveSinkEpoch,
		AdmitEvery:   serveAdmitEvery,
		AlertFloor:   math.NaN(),
		StreamBuffer: serveStreamBuffer,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(context.Background()); err != nil {
		return err
	}
	sv.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.drainFleet()
		return err
	}
	sv.url = "http://" + ln.Addr().String()
	sv.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: httpTimeout}
	go func() {
		defer close(sv.served)
		_ = sv.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	sv.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	s.cur = sv

	body, err := json.Marshal(s.base)
	if err != nil {
		return err
	}
	if code, _, err := sv.do(http.MethodPut, "/v1/tenants/base", body); err != nil || code != http.StatusCreated {
		return fmt.Errorf("PUT base: status %d: %v", code, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sv.stopBase = cancel
	go sv.subscribe(ctx)
	select {
	case <-sv.baseFirst:
		return nil
	case <-sv.baseDone:
		return fmt.Errorf("base stream ended before its first line: %v", sv.baseErr)
	case <-time.After(httpTimeout):
		return errors.New("base stream: no line within the timeout")
	}
}

// subscribe is the base tenant's long-lived telemetry reader.
func (sv *server) subscribe(ctx context.Context) {
	defer close(sv.baseDone)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sv.url+"/v1/tenants/base/telemetry", nil)
	if err != nil {
		sv.baseErr = err
		return
	}
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		sv.baseErr = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sv.baseErr = fmt.Errorf("status %d", resp.StatusCode)
		return
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, io.EOF) {
				sv.baseErr = err
			}
			return
		}
		if sv.lines.Add(1) == 1 {
			close(sv.baseFirst)
		}
		sv.bytes.Add(int64(len(line)))
	}
}

// do runs one operator call and returns its status and body.
func (sv *server) do(method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), httpTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, sv.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// firstLine opens a tenant's telemetry stream and returns when its
// first line has been read.
func (sv *server) firstLine(id string) (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), httpTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sv.url+"/v1/tenants/"+id+"/telemetry", nil)
	if err != nil {
		return 0, err
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	if _, err := bufio.NewReader(resp.Body).ReadSlice('\n'); err != nil {
		return 0, err
	}
	return now(), nil
}

// gateAfter is the first churn-patient admission gate at or after t,
// dropping older ones.
func (sv *server) gateAfter(t int64) (int64, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	best, ok := int64(math.MaxInt64), false
	kept := sv.gates[:0]
	for _, g := range sv.gates {
		if g >= t {
			kept = append(kept, g)
			if g < best {
				best, ok = g, true
			}
		}
	}
	sv.gates = kept
	return best, ok
}

func (sv *server) drainFleet() {
	ctx, cancel := context.WithTimeout(context.Background(), httpTimeout)
	defer cancel()
	if err := sv.srv.Drain(ctx); err != nil {
		logf("serve: drain: %v", err)
	}
}

// stop drains the fleet (which ends every stream), stops the HTTP
// server and waits for every goroutine the server started.
func (sv *server) stop() {
	sv.drainFleet()
	if sv.stopBase != nil {
		sv.stopBase()
		<-sv.baseDone
	}
	if sv.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), httpTimeout)
		defer cancel()
		if err := sv.hs.Shutdown(ctx); err != nil {
			logf("serve: shutdown: %v", err)
			_ = sv.hs.Close() // already failing; Close only forces the listener down
		}
		<-sv.served
		sv.client.CloseIdleConnections()
	}
}

// churn generates the churn tenants from the workload seed: a table
// scenario and an inline meal+occlusion program each, and the think time
// before the tenant's DELETE.
type churn struct{ rng *rand.Rand }

func (c churn) next(i, tableLen int) (fleetd.TenantSpec, time.Duration) {
	r := c.rng
	prog := fault.Program{Name: fmt.Sprintf("churn-%d", i), Segments: []fault.Segment{
		{Kind: fault.SegInitBG, Value: 90 + 90*r.Float64()},
		{Kind: fault.SegMeal, Value: 20 + 100*r.Float64(), Start: r.Intn(60), Duration: 6},
		{Kind: fault.SegOcclusion, Start: r.Intn(90), Duration: 6 + r.Intn(30)},
	}}
	spec := fleetd.TenantSpec{
		Patients:  []int{churnPatient},
		Scenarios: []int{r.Intn(tableLen)},
		Programs:  []fault.Program{prog},
	}
	return spec, time.Duration(r.Int63n(int64(serveThinkMax)))
}

func (s *serve) phase(traced bool, seconds float64) (phaseResult, error) {
	p := phaseResult{spans: &spanLog{}}
	if s.cur == nil || s.cur.traced != traced {
		s.tearDown()
		if err := s.start(traced); err != nil {
			return p, fmt.Errorf("serve: start: %w", err)
		}
	}
	sv := s.cur
	gen := churn{rng: rand.New(rand.NewSource(derive(s.o.seed, 4)))}
	var snapBytes, rates []float64
	l0, b0 := sv.lines.Load(), sv.bytes.Load()
	start := time.Now()
	winStart, winLines := start, l0
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		spec, think := gen.next(i, len(s.table))
		if n, ok := s.cycle(sv, i, fmt.Sprintf("churn-%06d", i), spec, think, &p); ok {
			snapBytes = append(snapBytes, float64(n))
		}
		if d := time.Since(winStart); d >= serveRateWindow {
			l := sv.lines.Load()
			rates = append(rates, float64(l-winLines)/d.Seconds())
			winStart, winLines = time.Now(), l
		}
	}
	p.seconds = time.Since(start).Seconds()
	p.rate = sustained(rates)
	logBlocks("serve", rates)
	lines, nbytes := sv.lines.Load()-l0, sv.bytes.Load()-b0
	p.attempted += lines
	status := s.final(sv, &p)
	p.digest = fmt.Sprintf("live=%d desired=%d rejected=%d", status.Live, status.Desired, status.Rejected)
	if traced {
		// The shards write their accumulators until the fleet stops.
		s.tearDown()
		tot := sv.tr.totals()
		m := map[string]float64{}
		tot.fill(m)
		m["fleet.shard_skew"] = tot.skew
		m["sim.glucosym.ns_per_lane_step"] = ratio(float64(tot.sim.ns), float64(tot.laneSteps))
		t0 := now()
		for i := range s.table {
			if _, err := s.table[i].Compile(288, 5); err != nil {
				p.checkf("table program %d: %v", i, err)
			}
		}
		m["fault.compile_ms"] = float64(now()-t0) / 1e6
		snap := p.spans.ms("snapshot.request")
		snapTail, _ := tailOf(snap) // too few cycles reads as zero
		m["snapshot.request_ms_p50"] = median(snap)
		m["snapshot.request_ms_tail"] = snapTail.Value
		m["snapshot.bytes"] = median(snapBytes)
		m["snapshot.decode_us"] = 1e3 * median(p.spans.ms("snapshot.decode"))
		m["fleetd.put_ms_p50"] = median(p.spans.ms("fleetd.put"))
		m["fleetd.delete_ms_p50"] = median(p.spans.ms("fleetd.delete"))
		m["fleetd.admit_to_gate_ms_p50"] = median(p.spans.ms("fleetd.admit_to_gate"))
		m["fleetd.gate_to_line_ms_p50"] = median(p.spans.ms("fleetd.gate_to_line"))
		m["fleetd.stream_lines"] = float64(lines)
		m["fleetd.stream_bytes"] = float64(nbytes)
		m["fleetd.dropped"] = float64(status.StreamDropped)
		m["fleetd.rejected"] = float64(status.Rejected)
		p.layers = m
	}
	return p, nil
}

// cycle runs one churn tenant through PUT, first line, snapshot, the
// think time and DELETE, checking every reply, and returns the sealed
// snapshot's size. Every call is a span of the cycle.
func (s *serve) cycle(sv *server, i int, id string, spec fleetd.TenantSpec, think time.Duration, p *phaseResult) (int, bool) {
	path := "/v1/tenants/" + id
	fail := func(format string, args ...any) (int, bool) {
		p.failed++
		p.checkf("%s: "+format, append([]any{id}, args...)...)
		return 0, false
	}
	// call records a span that started at t0 and ends now.
	call := func(name string, t0 int64) int64 {
		t := now()
		p.spans.add(name, "cycle", i, t0, t)
		return t
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return fail("encode spec: %v", err)
	}
	start := now()
	p.attempted++
	code, _, err := sv.do(http.MethodPut, path, body)
	t := call("fleetd.put", start)
	if err != nil || code != http.StatusCreated {
		return fail("PUT status %d: %v", code, err)
	}
	p.attempted++
	line, err := sv.firstLine(id)
	if err != nil {
		return fail("first telemetry line: %v", err)
	}
	p.spans.add("fleetd.first_line", "cycle", i, t, line)
	p.latencyMs = append(p.latencyMs, float64(line-start)/1e6)
	if sv.traced {
		if gate, ok := sv.gateAfter(start); ok && gate <= line {
			p.spans.add("fleetd.admit_to_gate", "cycle", i, start, gate)
			p.spans.add("fleetd.gate_to_line", "cycle", i, gate, line)
		}
	}

	p.attempted++
	t = now()
	code, data, err := sv.do(http.MethodPost, path+"/snapshot", nil)
	t = call("snapshot.request", t)
	if err != nil || code != http.StatusOK {
		return fail("snapshot status %d: %v", code, err)
	}
	var snap struct {
		Sessions int    `json:"sessions"`
		Snapshot []byte `json:"snapshot"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return fail("snapshot body: %v", err)
	}
	fs, err := fleet.DecodeFleetSnapshot(snap.Snapshot)
	call("snapshot.decode", t)
	want := len(spec.Patients) * (len(spec.Scenarios) + len(spec.Programs))
	if err != nil || len(fs.Sessions) != want || snap.Sessions != want {
		return fail("snapshot decodes to %v sessions (header %d), want %d: %v", sessionsOf(fs), snap.Sessions, want, err)
	}

	time.Sleep(think)
	p.attempted++
	t = now()
	code, _, err = sv.do(http.MethodDelete, path, nil)
	t = call("fleetd.delete", t)
	if err != nil || code != http.StatusNoContent {
		return fail("DELETE status %d: %v", code, err)
	}
	p.spans.add("cycle", "", i, start, t)
	return len(snap.Snapshot), true
}

func sessionsOf(fs *fleet.FleetSnapshot) any {
	if fs == nil {
		return "no"
	}
	return len(fs.Sessions)
}

// final waits for the last churn tenant's eviction and checks the
// server's status: only the base tenant live, nothing rejected or
// dropped.
func (s *serve) final(sv *server, p *phaseResult) fleetd.Status {
	want := len(s.base.Patients) * len(s.base.Scenarios)
	var st fleetd.Status
	deadline := time.Now().Add(httpTimeout)
	for {
		code, data, err := sv.do(http.MethodGet, "/v1/status", nil)
		if err != nil || code != http.StatusOK {
			p.failed++
			p.checkf("status: %d: %v", code, err)
			return st
		}
		if err := json.Unmarshal(data, &st); err != nil {
			p.checkf("status body: %v", err)
			return st
		}
		if st.Live == want || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.attempted++
	if st.Live != want || st.Desired != want || st.Rejected != 0 || st.StreamDropped != 0 {
		p.failed += st.Rejected + st.StreamDropped
		p.checkf("status live %d desired %d rejected %d dropped %d, want live %d and nothing rejected or dropped",
			st.Live, st.Desired, st.Rejected, st.StreamDropped, want)
	}
	return st
}
