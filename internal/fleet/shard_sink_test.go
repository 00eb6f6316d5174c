package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
)

// TestKindRankExhaustive is the enum guard: every declared EventKind
// must carry an explicit, unique canonical-merge rank and a String
// name. A kind added without them would silently sort at an arbitrary
// position (the old default rank) and render as "unknown" — this test
// turns that into a compile-adjacent failure via the eventKindCount
// sentinel.
func TestKindRankExhaustive(t *testing.T) {
	seen := make(map[int]EventKind, eventKindCount)
	for k := EventKind(0); k < eventKindCount; k++ {
		r := kindRank(k)
		if r < 0 {
			t.Errorf("event kind %v (%d) has no explicit merge rank in kindRank", k, int(k))
		}
		if prev, dup := seen[r]; dup {
			t.Errorf("event kinds %v and %v share merge rank %d — canonical order is ambiguous", prev, k, r)
		}
		seen[r] = k
		if k.String() == "unknown" {
			t.Errorf("event kind %d has no String name", int(k))
		}
	}
	if kindRank(eventKindCount) >= 0 {
		t.Error("undeclared event kind got a merge rank — the default arm must reject it")
	}
}

// epochFleetConfig is a finite campaign rich in every event kind
// (alarms, hazards, robustness telemetry, progress marks), shared by
// the epoch-merge tests. The sink is attached by the caller.
func epochFleetConfig() Config {
	return Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: thinScenarios(90),
		Steps:     30,
		Seed:      3,
		Sensor:    &sensor.Config{NoiseSD: 2},
		NewBatchMonitor: func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
		},
		Telemetry:     &TelemetryConfig{FromMonitor: true},
		ProgressEvery: 7,
	}
}

// runEndEpoch is a sink epoch longer than any run in these tests: its
// only merge happens when the workers exit — the run-end merge.
const runEndEpoch = 1 << 20

// TestShardedSinkEpochMergeMatchesRunEnd is the tentpole differential:
// for a finite run, the concatenation of epoch merges must be
// byte-identical (LogSink JSONL) to the single run-end merge at every
// tested (Parallel, SinkEpoch) — including with the live window capped
// so sessions queue and the delivery frontier advances in waves. Epoch
// chunking may only change *when* events reach the sinks, never their
// order, payloads, re-stamped completion counts, or synthesized
// progress marks.
func TestShardedSinkEpochMergeMatchesRunEnd(t *testing.T) {
	type variant struct {
		parallel  int
		sinkEpoch int
		maxLive   int
	}
	run := func(v variant) ([]byte, int) {
		var buf bytes.Buffer
		cfg := epochFleetConfig()
		cfg.Sinks = []Sink{NewLogSink(&buf)}
		cfg.Parallel = v.parallel
		cfg.SinkEpoch = v.sinkEpoch
		cfg.MaxLivePerShard = v.maxLive
		liveDelivered := 0
		cfg.sinkEpochHook = func(_, _, delivered int) { liveDelivered += delivered }
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Completed) != len(cfg.Patients)*len(cfg.Scenarios) {
			t.Fatalf("completed %d sessions", res.Completed)
		}
		return buf.Bytes(), liveDelivered
	}

	golden, _ := run(variant{parallel: 1, sinkEpoch: runEndEpoch})
	if len(golden) == 0 {
		t.Fatal("run-end merge delivered nothing")
	}
	variants := []variant{}
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		for _, e := range []int{1, 7, 30 /* = Steps: run-length epochs */} {
			variants = append(variants, variant{parallel: p, sinkEpoch: e})
		}
	}
	// Cap the live window so slots queue: the frontier then advances in
	// waves and epoch barriers deliver mid-run instead of only at exit.
	queued := variant{parallel: 2, sinkEpoch: 7, maxLive: 3}
	variants = append(variants, queued)
	for _, v := range variants {
		got, live := run(v)
		if !bytes.Equal(got, golden) {
			t.Errorf("Parallel=%d SinkEpoch=%d MaxLive=%d: epoch-merged stream differs from run-end merge",
				v.parallel, v.sinkEpoch, v.maxLive)
		}
		if v == queued && live == 0 {
			t.Error("queued variant delivered nothing at epoch barriers — stable-prefix delivery is vacuous")
		}
	}
}

// TestShardedSinksContinuousBounded is the serving-mode soak: a
// continuous fleet with sinks must (1) run, (2) drain
// its buffers completely at every epoch barrier, keeping buffered
// memory bounded by one epoch window across ≥3 epochs (the StateSamples
// style of boundedness guard), (3) deliver only closed epochs, so a
// cancelled fleet loses exactly the un-barriered tail, and (4) produce
// a byte-identical stream
// at every parallelism level, because event-to-epoch assignment is a
// pure function of the session coordinates in continuous mode.
func TestShardedSinksContinuousBounded(t *testing.T) {
	const (
		steps     = 5
		sinkEpoch = 4
		stopAfter = 5 // closed epochs before cancellation
	)
	type epochObs struct{ epoch, buffered, delivered int }
	run := func(parallel int) ([]byte, []epochObs) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var buf bytes.Buffer
		var obs []epochObs
		cfg := Config{
			Platform:   glucosymPlatform(),
			Patients:   []int{0},
			Scenarios:  thinScenarios(300), // 3 scenarios: 3 slots
			Steps:      steps,
			Seed:       11,
			Parallel:   parallel,
			Continuous: true,
			Sensor:     &sensor.Config{NoiseSD: 2},
			Telemetry:  &TelemetryConfig{},
			Sinks:      []Sink{NewLogSink(&buf)},
			SinkEpoch:  sinkEpoch,
		}
		cfg.sinkEpochHook = func(epoch, buffered, delivered int) {
			// Runs under the barrier lock: appends are ordered and safe.
			obs = append(obs, epochObs{epoch, buffered, delivered})
			if len(obs) == stopAfter {
				cancel()
			}
		}
		if _, err := Run(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), obs
	}

	golden, goldenObs := run(1)
	for _, parallel := range []int{2, 3} {
		got, obs := run(parallel)
		if !bytes.Equal(got, golden) {
			t.Errorf("Parallel=%d: continuous epoch stream differs from Parallel=1", parallel)
		}
		if len(obs) != len(goldenObs) {
			t.Errorf("Parallel=%d: %d closed epochs, want %d", parallel, len(obs), len(goldenObs))
		}
	}

	if len(goldenObs) < 3 {
		t.Fatalf("only %d closed epochs — soak is vacuous", len(goldenObs))
	}
	// Buffer boundedness: each barrier drains everything it merged, and
	// what it merged is one epoch window of events — per session, at most
	// one robustness event per round plus the per-replica boundary events
	// (start, alarm, hazard, done) for every replica the window touches.
	const slots = 3
	bound := slots * (sinkEpoch + 4*(sinkEpoch/steps+2))
	for _, o := range goldenObs {
		if o.delivered != o.buffered {
			t.Fatalf("epoch %d: delivered %d of %d buffered — continuous epochs must drain whole",
				o.epoch, o.delivered, o.buffered)
		}
		if o.buffered == 0 || o.buffered > bound {
			t.Fatalf("epoch %d buffered %d events, want (0, %d] — sharded buffers are not bounded by the epoch window",
				o.epoch, o.buffered, bound)
		}
	}

	// Closed-epoch-only delivery: every delivered event was emitted in a
	// lock-step round strictly before the cancellation cut, and replica
	// churn is visible (the stream really spans generations).
	horizon := len(goldenObs) * sinkEpoch
	replicas := make(map[int]bool)
	sc := bufio.NewScanner(bytes.NewReader(golden))
	lines := 0
	for sc.Scan() {
		lines++
		var rec struct {
			Kind    string `json:"kind"`
			Replica int    `json:"replica"`
			Step    int    `json:"step"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		replicas[rec.Replica] = true
		round := 0
		switch rec.Kind {
		case "robustness", "alarm":
			round = rec.Replica*steps + rec.Step
		case "done", "hazard":
			round = rec.Replica*steps + steps - 1
		case "start":
			if rec.Replica > 0 {
				round = rec.Replica*steps - 1
			}
		case "progress":
			continue // synthesized at delivery, no emission round
		default:
			t.Fatalf("unexpected event kind %q", rec.Kind)
		}
		if round >= horizon {
			t.Fatalf("delivered %s event from round %d, but only %d epochs (%d rounds) closed before cancellation",
				rec.Kind, round, len(goldenObs), horizon)
		}
	}
	if lines == 0 {
		t.Fatal("continuous sinks delivered nothing")
	}
	if len(replicas) < 2 {
		t.Fatalf("delivered events span %d replica generations, want >= 2", len(replicas))
	}
}

// TestShardedSinkCancelSkipsOpenEpoch pins the cancellation contract
// from the sink side: delivery must not replay the open (un-barriered)
// epoch of a cancelled run. A run cancelled before its first barrier
// delivers nothing, instead of persisting the buffered stream as if the
// run had completed.
func TestShardedSinkCancelSkipsOpenEpoch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := NewLogSink(&bytes.Buffer{})
	cfg := sinkFleetConfig()
	cfg.Sinks = []Sink{sink}
	if _, err := Run(ctx, cfg); err == nil {
		t.Fatal("cancelled finite run should fail")
	}
	if sink.Written() != 0 {
		t.Fatalf("delivery persisted %d events from a run cancelled before any epoch closed", sink.Written())
	}
}

// TestFiniteRunDefaultsToEpochDelivery: with SinkEpoch unset, a finite
// fleet closes epochs of the default length while it runs and delivers
// at those barriers, instead of buffering the whole run until Run
// returns — finite runs get the bounded memory continuous runs have.
func TestFiniteRunDefaultsToEpochDelivery(t *testing.T) {
	cfg := epochFleetConfig()
	cfg.Parallel = 1
	cfg.MaxLivePerShard = 2 // queue slots so the frontier advances in waves
	cfg.Sinks = []Sink{NewLogSink(&bytes.Buffer{})}
	epochs, delivered := 0, 0
	cfg.sinkEpochHook = func(_, _, d int) { epochs++; delivered += d }
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// 20 sessions in waves of 2, 30 steps each: 300 lock-step rounds.
	sessions := len(cfg.Patients) * len(cfg.Scenarios)
	rounds := sessions / cfg.MaxLivePerShard * cfg.Steps
	if want := rounds / 64; epochs != want {
		t.Fatalf("%d epochs closed over %d rounds, want %d at the default SinkEpoch of 64", epochs, rounds, want)
	}
	if delivered == 0 {
		t.Fatal("no events delivered at epoch barriers — the finite run buffered everything until run end")
	}
}

// TestShardedDeliveryAbortDropsDeadBuffers: once a shard abandons an
// open epoch (cancellation or error), barriers deliver nothing more —
// but surviving shards may keep stepping for a long time (a continuous
// fleet errors out of one shard and runs until external cancellation),
// so aborted barriers must also truncate the dead buffers instead of
// growing them unboundedly, and neither the barrier nor finish may leak
// the abandoned epoch to the sinks.
func TestShardedDeliveryAbortDropsDeadBuffers(t *testing.T) {
	ring, err := NewRingSink(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Parallel: 2, SinkEpoch: 4, Continuous: true, Sinks: []Sink{ring}}
	d := newShardedDelivery(cfg, make([]error, 1))
	d.buffer(0, Event{Kind: EventRobustness, Session: 0})
	d.buffer(1, Event{Kind: EventRobustness, Session: 1})
	d.leave(1, false) // shard 1 aborts mid-epoch
	d.buffer(0, Event{Kind: EventRobustness, Session: 0, Step: 1})
	d.await(0, 0) // shard 0 completes the barrier alone: aborted, no delivery
	if got := len(d.bufs[0]); got != 0 {
		t.Fatalf("aborted barrier left %d buffered events — dead buffers would grow unboundedly", got)
	}
	if ring.Total() != 0 {
		t.Fatalf("aborted barrier delivered %d events", ring.Total())
	}
	d.leave(0, false)
	d.finish()
	if ring.Total() != 0 {
		t.Fatalf("finish delivered %d abandoned open-epoch events", ring.Total())
	}
}

// TestShardedSinkEpochRestampsAcrossEpochs: the completion counter and
// progress marks must be re-stamped with a cursor carried across epoch
// deliveries, not restarted per epoch — dones count 1..N along the
// concatenated stream and every progress mark trails a
// multiple-of-ProgressEvery done, exactly as in the run-end merge.
func TestShardedSinkEpochRestampsAcrossEpochs(t *testing.T) {
	var buf bytes.Buffer
	cfg := epochFleetConfig()
	cfg.Sinks = []Sink{NewLogSink(&buf)}
	cfg.Parallel = 2
	cfg.SinkEpoch = 7
	cfg.MaxLivePerShard = 3 // queue slots so multiple epochs deliver dones
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	var dones, progress int64
	scanner := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for scanner.Scan() {
		var rec struct {
			Kind      string `json:"kind"`
			Completed int64  `json:"completed"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Kind {
		case "done":
			dones++
			if rec.Completed != dones {
				t.Fatalf("done #%d carries completed=%d — cursor not carried across epochs", dones, rec.Completed)
			}
		case "progress":
			progress++
			if rec.Completed%int64(cfg.ProgressEvery) != 0 {
				t.Fatalf("progress at completed=%d, want multiples of %d", rec.Completed, cfg.ProgressEvery)
			}
		}
	}
	if dones == 0 || progress != dones/int64(cfg.ProgressEvery) {
		t.Fatalf("%d dones, %d progress marks, want %d", dones, progress, dones/int64(cfg.ProgressEvery))
	}
}

// TestShardedSinksContinuousProgressMonotone pins progress
// re-synthesis across epochs in continuous mode: replica completions
// re-stamped at epoch merges must form one strictly increasing
// completion sequence spanning every delivered epoch, with a progress
// mark at exactly each ProgressEvery-th completion — the continuous
// stream must be indistinguishable from a single infinite merge.
func TestShardedSinksContinuousProgressMonotone(t *testing.T) {
	const stopAfter = 6 // closed epochs before cancellation
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	cfg := Config{
		Platform:      glucosymPlatform(),
		Patients:      []int{0},
		Scenarios:     thinScenarios(300), // 3 scenarios: 3 slots
		Steps:         3,                  // fast replica churn: dones in every epoch
		Seed:          11,
		Parallel:      2,
		Continuous:    true,
		Telemetry:     &TelemetryConfig{},
		Sinks:         []Sink{NewLogSink(&buf)},
		SinkEpoch:     4,
		ProgressEvery: 2,
	}
	closed := 0
	cfg.sinkEpochHook = func(int, int, int) {
		if closed++; closed == stopAfter {
			cancel()
		}
	}
	if _, err := Run(ctx, cfg); err != nil {
		t.Fatal(err)
	}

	var dones, progress int64
	lastProgressAt := int64(0)
	scanner := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for scanner.Scan() {
		var rec struct {
			Kind      string `json:"kind"`
			Completed int64  `json:"completed"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Kind {
		case "done":
			dones++
			if rec.Completed != dones {
				t.Fatalf("done #%d carries completed=%d — completion cursor reset between continuous epochs", dones, rec.Completed)
			}
		case "progress":
			progress++
			if rec.Completed%int64(cfg.ProgressEvery) != 0 || rec.Completed <= lastProgressAt {
				t.Fatalf("progress at completed=%d after mark at %d — marks must be strictly increasing multiples of %d",
					rec.Completed, lastProgressAt, cfg.ProgressEvery)
			}
			lastProgressAt = rec.Completed
		}
	}
	// 3 slots churning every 3 rounds over ~24 rounds: dones must span
	// several epochs, not pile into one merge.
	minDones := int64(2 * cfg.SinkEpoch)
	if dones < minDones {
		t.Fatalf("%d dones delivered, want at least %d spanning multiple epochs", dones, minDones)
	}
	if progress != dones/int64(cfg.ProgressEvery) {
		t.Fatalf("%d progress marks for %d dones, want %d", progress, dones, dones/int64(cfg.ProgressEvery))
	}
}

// sortCanonical is the comparison-sort oracle the canonical merge
// replaced.
func sortCanonical(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return canonicalLess(&evs[i], &evs[j]) })
}

// engineEpochs simulates what the workers of a continuous fleet buffer
// in each of epochs epochs of rounds lock-step rounds: sessions dealt
// round-robin over shards, each shard's buffer in emission order, and
// the buffers concatenated as closeEpoch appends them. Every session starts
// mid-replica; per cycle it may raise its replica's alarm and always
// streams a robustness sample; a finishing replica may emit a hazard
// stamped back at an earlier step, then its done, then the next
// replica's start; and sessions are evicted at gates every four rounds.
func engineEpochs(rng *rand.Rand, sessions, shards, steps, rounds, epochs int) [][]Event {
	type lane struct {
		slot, replica, step int
		alarmed, gone       bool
	}
	lanes := make([][]*lane, shards)
	for s := 0; s < sessions; s++ {
		sh := s % shards
		lanes[sh] = append(lanes[sh], &lane{slot: 3 * s, replica: rng.Intn(3), step: rng.Intn(steps)})
	}
	out := make([][]Event, epochs)
	for e := range out {
		bufs := make([][]Event, shards)
		for r := 0; r < rounds; r++ {
			for sh, ls := range lanes {
				emit := func(l *lane, kind EventKind, step int) {
					bufs[sh] = append(bufs[sh], Event{Kind: kind, Session: l.slot, Replica: l.replica, Step: step, Group: "g"})
				}
				for _, l := range ls {
					if l.gone {
						continue
					}
					if r%4 == 0 && rng.Intn(40) == 0 {
						emit(l, EventSessionEvict, l.step)
						l.gone = true
						continue
					}
					if !l.alarmed && rng.Intn(8) == 0 {
						emit(l, EventAlarm, l.step)
						l.alarmed = true
					}
					emit(l, EventRobustness, l.step)
					if l.step++; l.step < steps {
						continue
					}
					if rng.Intn(2) == 0 {
						emit(l, EventHazard, rng.Intn(steps))
					}
					emit(l, EventSessionDone, steps)
					l.replica, l.step, l.alarmed = l.replica+1, 0, false
					emit(l, EventSessionStart, 0)
				}
			}
		}
		for _, b := range bufs {
			out[e] = append(out[e], b...)
		}
	}
	return out
}

// TestCanonicalMergeMatchesSort: the canonical merge yields exactly the
// comparison sort's sequence on engine-shaped epochs (hazards stamped
// back in time, done/start pairs across replica boundaries, evictions),
// on a finite run's sorted residue followed by new events, and on
// random permutations of both — with its scratch reused throughout.
func TestCanonicalMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var m canonicalMerge
	check := func(name string, in []Event) {
		t.Helper()
		want := append([]Event(nil), in...)
		sortCanonical(want)
		got := m.sort(append([]Event(nil), in...))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: merge of %d events differs from the comparison sort", name, len(in))
		}
	}
	var hazards int
	for trial := 0; trial < 40; trial++ {
		sessions, shards := 1+rng.Intn(40), 1+rng.Intn(4)
		steps, rounds := 1+rng.Intn(12), 1+rng.Intn(16)
		epochs := engineEpochs(rng, sessions, shards, steps, rounds, 2)
		for _, ev := range epochs[0] {
			if ev.Kind == EventHazard {
				hazards++
			}
		}
		check("engine epoch", epochs[0])

		// Finite mode: the delivering barrier held back the sessions at or
		// above the frontier, already sorted; the next epoch's events follow.
		residue := append([]Event(nil), epochs[0]...)
		sortCanonical(residue)
		frontier := 3 * rng.Intn(sessions+1)
		residue = slices.DeleteFunc(residue, func(ev Event) bool { return ev.Session < frontier })
		finite := append(residue, epochs[1]...)
		check("residue + epoch", finite)

		for _, in := range [][]Event{epochs[0], finite} {
			perm := append([]Event(nil), in...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			check("permutation", perm)
		}
	}
	if hazards == 0 {
		t.Fatal("no hazard events generated: the back-stamped case is untested")
	}
	check("empty", nil)
	check("one event", []Event{{Kind: EventSessionStart, Session: 7}})
}

// TestCanonicalMergeNoAlloc: once its scratch has grown to an epoch's
// size, the merge allocates nothing.
func TestCanonicalMergeNoAlloc(t *testing.T) {
	epoch := engineEpochs(rand.New(rand.NewSource(2)), 99, 2, 288, 8, 1)[0]
	var m canonicalMerge
	pending := m.sort(append([]Event(nil), epoch...))
	pending = m.sort(append(pending[:0], epoch...))
	allocs := testing.AllocsPerRun(50, func() {
		pending = m.sort(append(pending[:0], epoch...))
	})
	if allocs != 0 {
		t.Fatalf("warm merge of %d events: %v allocs/op, want 0", len(epoch), allocs)
	}
}

// BenchmarkEpochMerge merges one serving-shaped epoch — 99 sessions on
// one shard for 8 rounds — with the merge's scratch warm; sort_slice is
// the comparison-sort oracle it replaced.
func BenchmarkEpochMerge(b *testing.B) {
	epoch := engineEpochs(rand.New(rand.NewSource(1)), 99, 1, 288, 8, 1)[0]
	pending := make([]Event, 0, len(epoch))
	b.Run("merge", func(b *testing.B) {
		var m canonicalMerge
		pending = m.sort(append(pending[:0], epoch...))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pending = m.sort(append(pending[:0], epoch...))
		}
	})
	b.Run("sort_slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pending = append(pending[:0], epoch...)
			sortCanonical(pending)
		}
	})
}
