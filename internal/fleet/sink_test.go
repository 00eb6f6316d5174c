package fleet

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/closedloop"
	"repro/internal/ml"
	"repro/internal/monitor"
	"repro/internal/scs"
	"repro/internal/sensor"
	"repro/internal/trace"
)

// sinkFleetConfig is a small campaign with telemetry, shared by the
// sink tests.
func sinkFleetConfig() Config {
	return Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: thinScenarios(60),
		Steps:     30,
		Seed:      3,
		Telemetry: &TelemetryConfig{},
	}
}

// jsonEvent is the JSONL wire struct as encoding/json sees it: the kind
// as its string name, zero-valued optional fields elided. It is the
// oracle AppendJSON must match byte for byte.
type jsonEvent struct {
	Kind       string  `json:"kind"`
	Session    int     `json:"session"`
	PatientIdx int     `json:"patient"`
	Group      string  `json:"group,omitempty"`
	Replica    int     `json:"replica,omitempty"`
	Step       int     `json:"step,omitempty"`
	Hazard     string  `json:"hazard,omitempty"`
	Completed  int64   `json:"completed,omitempty"`
	Robustness float64 `json:"robustness,omitempty"`
	Margin     float64 `json:"margin,omitempty"`
	Rule       int     `json:"rule,omitempty"`
	MarginRule int     `json:"margin_rule,omitempty"`
}

func toJSONEvent(ev Event) jsonEvent {
	je := jsonEvent{
		Kind:       ev.Kind.String(),
		Session:    ev.Session,
		PatientIdx: ev.PatientIdx,
		Group:      ev.Group,
		Replica:    ev.Replica,
		Step:       ev.Step,
		Completed:  ev.Completed,
	}
	if ev.Hazard != trace.HazardNone {
		je.Hazard = ev.Hazard.String()
	}
	if ev.Kind == EventRobustness {
		je.Robustness = ev.Robustness
		je.Margin = ev.Margin
		je.Rule = ev.Rule
		je.MarginRule = ev.MarginRule
	}
	return je
}

// checkAppendJSON compares AppendJSON with the encoding/json oracle on
// one event, appending after a non-empty prefix: both must fail
// together (AppendJSON leaving the prefix untouched), or both succeed
// with identical bytes.
func checkAppendJSON(t *testing.T, ev Event) {
	t.Helper()
	want, wantErr := json.Marshal(toJSONEvent(ev))
	prefix := []byte("prefix")
	got, err := AppendJSON(prefix, ev)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: AppendJSON error %v, json.Marshal error %v", ev, err, wantErr)
	}
	if err != nil {
		if string(got) != "prefix" {
			t.Fatalf("%+v: failed AppendJSON left %q, want the prefix alone", ev, got)
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix" {
		t.Fatalf("%+v:\n AppendJSON %s\n json.Marshal %s", ev, got[len(prefix):], want)
	}
}

// jsonSweepFloats are the float edges of encoding/json's float format:
// both signed zeros, the 'f'/'e' switch at 1e-6 and 1e21 with their
// neighbours, subnormals, the extremes and a few padded-exponent cases,
// plus the non-finite values neither encoder can write.
func jsonSweepFloats() []float64 {
	fs := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-320,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.1, 2.0999348925184593, -0.25, 1e-7, 1.5e-9, 1e-10, 123456789.125,
		1e20, 1e22, 1e100, -3e-300,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, edge := range []float64{1e-6, -1e-6, 1e21, -1e21} {
		fs = append(fs, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 2*edge))
	}
	return fs
}

// jsonSweepGroups exercise every string-escaping path: plain ASCII, the
// JSON and HTML specials, control bytes, invalid UTF-8, the JavaScript
// line separators and non-ASCII text.
var jsonSweepGroups = []string{
	"", "acme", "tenant-1.b_c", `quo"te`, `back\slash`, "<script>", "a<b", "a&b", "x>y",
	"\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "\xff\xfe", "bad\xc3(", "line\u2028sep\u2029",
	"ümlaut", "日本語", "\U0001F600",
}

// TestAppendJSONMatchesEncodingJSON: the hand-written appender writes
// exactly json.Marshal's bytes for the wire struct over every event
// kind and hazard, every string-escaping path and every float-format
// edge, and errors exactly where Marshal errors (non-finite robustness
// fields).
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	floats := jsonSweepFloats()
	// 1 << (bits.UintSize - 24) is 2^40 on 64-bit hosts and stays in
	// range where int is 32 bits.
	ints := []int{0, 1, -1, 7, 1 << (bits.UintSize - 24), math.MaxInt, math.MinInt}
	hazards := []trace.HazardType{trace.HazardNone, trace.HazardH1, trace.HazardH2, trace.HazardType(9)}
	var n int
	check := func(ev Event) {
		checkAppendJSON(t, ev)
		n++
	}
	for k := EventKind(0); k <= eventKindCount; k++ {
		for _, h := range hazards {
			check(Event{Kind: k, Session: 3, PatientIdx: 2, Hazard: h, Step: 5, Replica: 1,
				Completed: 9, Robustness: 0.5, Margin: -0.25, Rule: 4, MarginRule: 6})
			check(Event{Kind: k, Hazard: h})
		}
		for _, g := range jsonSweepGroups {
			check(Event{Kind: k, Group: g})
		}
		for _, f := range floats {
			check(Event{Kind: k, Robustness: f, Margin: 1})
			check(Event{Kind: k, Robustness: 1, Margin: f})
		}
	}
	for _, v := range ints {
		check(Event{Kind: EventRobustness, Session: v, PatientIdx: v, Replica: v, Step: v,
			Completed: int64(v), Rule: v, MarginRule: v})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		pickF := func() float64 {
			if rng.Intn(3) == 0 {
				return floats[rng.Intn(len(floats))]
			}
			return math.Float64frombits(rng.Uint64()) // any bit pattern, non-finite included
		}
		pickI := func() int { return ints[rng.Intn(len(ints))] * rng.Intn(3) }
		check(Event{
			Kind:       EventKind(rng.Intn(int(eventKindCount) + 1)),
			Session:    rng.Intn(1 << 20),
			PatientIdx: rng.Intn(20) - 1,
			Replica:    pickI(),
			Group:      jsonSweepGroups[rng.Intn(len(jsonSweepGroups))],
			Step:       pickI(),
			Hazard:     hazards[rng.Intn(len(hazards))],
			Completed:  int64(pickI()),
			Robustness: pickF(),
			Rule:       pickI(),
			Margin:     pickF(),
			MarginRule: pickI(),
		})
	}
	t.Logf("%d events matched", n)
}

// FuzzAppendJSON holds AppendJSON to the encoding/json oracle on
// arbitrary events.
func FuzzAppendJSON(f *testing.F) {
	f.Add(int(EventRobustness), 1, 2, "acme", 0, 5, 0, int64(0), 2.0999348925184593, 6, -0.25, 6)
	f.Add(int(EventAlarm), 0, 9, "", 3, 12, int(trace.HazardH1), int64(0), 0.0, 0, 0.0, 0)
	f.Add(int(EventProgress), 0, 0, "<&>", 0, 0, 0, int64(40), 1e21, 0, 1e-7, 0)
	f.Add(int(EventRobustness), 0, 0, "\xff\u2028", 0, 0, 0, int64(0), math.NaN(), 0, math.Inf(-1), 0)
	f.Fuzz(func(t *testing.T, kind, session, patient int, group string, replica, step, hazard int,
		completed int64, rob float64, rule int, margin float64, marginRule int) {
		checkAppendJSON(t, Event{
			Kind: EventKind(kind), Session: session, PatientIdx: patient, Group: group,
			Replica: replica, Step: step, Hazard: trace.HazardType(hazard), Completed: completed,
			Robustness: rob, Rule: rule, Margin: margin, MarginRule: marginRule,
		})
	})
}

// wantLogSinkDigest is the SHA-256 of a LogSink's whole output for
// sinkFleetConfig with ProgressEvery 7, taken from the encoding/json
// LogSink the appender replaced: an absolute pin on the wire bytes.
const wantLogSinkDigest = "b03109e27ceeca7ac9a51cb3187f792780d8bbcd7c1429b3042ba2d77500cafa"

// TestLogSinkWireDigest pins the JSONL wire format absolutely: the
// digest of a whole campaign's log — lifecycle, progress and
// robustness lines — must not move.
func TestLogSinkWireDigest(t *testing.T) {
	var buf bytes.Buffer
	sink := NewLogSink(&buf)
	cfg := sinkFleetConfig()
	cfg.ProgressEvery = 7
	cfg.Sinks = []Sink{sink}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"kind":"progress"`)); n == 0 {
		t.Fatal("no progress lines — the pin would not cover them")
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantLogSinkDigest {
		t.Fatalf("LogSink wire digest %s, want %s (%d lines, %d bytes)", got, wantLogSinkDigest, sink.Written(), buf.Len())
	}
}

// TestAppendJSONNoAlloc: appending a robustness event with a group into
// a buffer with room allocates nothing.
func TestAppendJSONNoAlloc(t *testing.T) {
	ev := Event{Kind: EventRobustness, Session: 41, PatientIdx: 3, Group: "acme", Replica: 2,
		Step: 117, Hazard: trace.HazardH1, Robustness: 2.0999348925184593, Margin: -0.3141592653589793, Rule: 6, MarginRule: 2}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendJSON(buf[:0], ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendJSON into a reused buffer: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkAppendJSON encodes one grouped robustness event into a
// reused buffer; the encoding_json sub-benchmark is the json.Marshal
// oracle the appender replaced.
func BenchmarkAppendJSON(b *testing.B) {
	ev := Event{Kind: EventRobustness, Session: 41, PatientIdx: 3, Group: "base", Replica: 2,
		Step: 117, Robustness: 2.0999348925184593, Margin: -0.3141592653589793, Rule: 6, MarginRule: 2}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 512)
		for i := 0; i < b.N; i++ {
			buf, _ = AppendJSON(buf[:0], ev)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			line, _ := json.Marshal(toJSONEvent(ev))
			n = len(line)
		}
		b.SetBytes(int64(n))
	})
}

// TestLogSinkWritesJSONL: every event reaches the log as one parseable
// JSON line, and the robustness lines carry both the raw STL minimum
// and the signed margin.
func TestLogSinkWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewLogSink(&buf)
	cfg := sinkFleetConfig()
	cfg.Sinks = []Sink{sink}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantRob := int64(len(res.Traces) * cfg.Steps)
	sc := bufio.NewScanner(&buf)
	var lines, robLines int64
	kinds := map[string]int{}
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		kind, _ := rec["kind"].(string)
		kinds[kind]++
		if kind == "robustness" {
			robLines++
			if _, ok := rec["margin"]; !ok {
				t.Fatalf("robustness line lacks margin: %s", sc.Text())
			}
		}
	}
	if lines != sink.Written() {
		t.Fatalf("scanned %d lines, sink wrote %d", lines, sink.Written())
	}
	if robLines != wantRob {
		t.Fatalf("%d robustness lines, want %d", robLines, wantRob)
	}
	if kinds["start"] != len(res.Traces) || kinds["done"] != len(res.Traces) {
		t.Fatalf("lifecycle lines %v, want %d starts and dones", kinds, len(res.Traces))
	}
}

// TestRingSinkBoundedSnapshot: the ring retains exactly its capacity,
// newest-last, while counting the full stream.
func TestRingSinkBoundedSnapshot(t *testing.T) {
	if _, err := NewRingSink(0); err == nil {
		t.Error("zero capacity should be rejected")
	}
	sink, err := NewRingSink(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sinkFleetConfig()
	cfg.Sinks = []Sink{sink}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("snapshot has %d events, want capacity 64", len(snap))
	}
	minTotal := int64(len(res.Traces) * cfg.Steps)
	if sink.Total() < minTotal {
		t.Fatalf("ring saw %d events, want >= %d", sink.Total(), minTotal)
	}
	// The final event of a finite run is a session completion.
	last := snap[len(snap)-1]
	if last.Kind != EventSessionDone {
		t.Fatalf("newest ring event is %v, want done", last.Kind)
	}
}

// TestHistSinkAggregatesMargins: per-patient counts must equal the
// per-patient robustness-event counts, and the distribution must span
// the violation side on a fault campaign.
func TestHistSinkAggregatesMargins(t *testing.T) {
	if _, err := NewHistSink(1, 1, 10); err == nil {
		t.Error("empty range should be rejected")
	}
	if _, err := NewHistSink(-5, 5, 0); err == nil {
		t.Error("zero bins should be rejected")
	}
	sink, err := NewHistSink(-5, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sinkFleetConfig()
	cfg.Sinks = []Sink{sink}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	patients := sink.Patients()
	if len(patients) != len(cfg.Patients) {
		t.Fatalf("histograms for %v, want %v", patients, cfg.Patients)
	}
	var total, negative int64
	for _, p := range patients {
		hist, ok := sink.Histogram(p)
		if !ok {
			t.Fatalf("no histogram for patient %d", p)
		}
		for b, c := range hist {
			total += c
			if float64(b) < float64(len(hist))/2 {
				negative += c
			}
		}
		if _, n := sink.Mean(p); n == 0 {
			t.Fatalf("patient %d mean over zero samples", p)
		}
	}
	if want := int64(len(res.Traces) * cfg.Steps); total != want {
		t.Fatalf("histograms hold %d margins, want %d", total, want)
	}
	if negative == 0 {
		t.Fatal("no negative margins across a fault campaign — aggregation is vacuous")
	}
	if sink.Render() == "" {
		t.Fatal("empty render")
	}
}

// TestHistSinkDropsNonFiniteMargins: a NaN margin makes both clamp
// comparisons false and feeds an implementation-defined float->int
// conversion; ±Inf poisons the running mean. Non-finite margins must be
// dropped and counted, never aggregated, and finite margins around them
// must keep binning exactly as before.
func TestHistSinkDropsNonFiniteMargins(t *testing.T) {
	sink, err := NewHistSink(-5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(margin float64) {
		if err := sink.Emit(Event{Kind: EventRobustness, PatientIdx: 1, Margin: margin}); err != nil {
			t.Fatal(err)
		}
	}
	emit(-1)
	emit(math.NaN())
	emit(math.Inf(1))
	emit(math.Inf(-1))
	emit(2)
	// Non-robustness events never aggregate, finite margin or not.
	if err := sink.Emit(Event{Kind: EventSessionDone, PatientIdx: 1, Margin: math.NaN()}); err != nil {
		t.Fatal(err)
	}

	if got := sink.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	hist, ok := sink.Histogram(1)
	if !ok {
		t.Fatal("no histogram for patient 1")
	}
	var total int64
	for _, c := range hist {
		if c < 0 {
			t.Fatalf("negative bin count %d — counts corrupted", c)
		}
		total += c
	}
	if total != 2 {
		t.Fatalf("histogram holds %d margins, want the 2 finite ones", total)
	}
	mean, n := sink.Mean(1)
	if n != 2 || mean != 0.5 {
		t.Fatalf("Mean() = (%v, %d), want (0.5, 2) over the finite margins only", mean, n)
	}
}

// failingSink errors on the nth emit.
type failingSink struct {
	n     int
	seen  int
	after int // emits delivered after the failure (must stay 0)
}

func (f *failingSink) Emit(Event) error {
	f.seen++
	if f.seen == f.n {
		return fmt.Errorf("sink exploded at event %d", f.n)
	}
	if f.seen > f.n {
		f.after++
	}
	return nil
}
func (f *failingSink) Flush() error { return nil }

// TestSinkErrorDetachesWithoutAbortingRun: a failing sink must not kill
// the fleet — the run completes, healthy sinks keep receiving, and the
// error surfaces from Run.
func TestSinkErrorDetachesWithoutAbortingRun(t *testing.T) {
	bad := &failingSink{n: 10}
	good, err := NewRingSink(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sinkFleetConfig()
	cfg.Sinks = []Sink{bad, good}
	res, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("sink error did not surface from Run")
	}
	if res.Completed != int64(len(cfg.Patients)*len(thinScenarios(60))) {
		t.Fatalf("run did not complete: %d sessions", res.Completed)
	}
	if bad.after != 0 {
		t.Fatalf("failing sink received %d events after its error", bad.after)
	}
	if good.Total() <= int64(bad.seen) {
		t.Fatalf("healthy sink stalled at %d events", good.Total())
	}
}

// TestTelemetryRequiresEventsOrSinks: telemetry needs a consumer, and
// sinks are the fleet's only event output.
func TestTelemetryRequiresEventsOrSinks(t *testing.T) {
	cfg := sinkFleetConfig()
	cfg.Sinks = nil
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("telemetry without any consumer should fail")
	}
	sink, err := NewRingSink(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sinks = []Sink{sink}
	cfg.Scenarios = thinScenarios(300)
	cfg.Patients = []int{0}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("sinks alone should satisfy telemetry: %v", err)
	}
}

// TestTelemetryFromMonitor: with FromMonitor the robustness events must
// equal the monitor's own streaming verdicts, replayed over each trace
// by a one-lane view of the shard monitor — one rule evaluation per
// cycle feeding alarm, mitigation, and telemetry alike.
func TestTelemetryFromMonitor(t *testing.T) {
	cfg := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0, 2},
		Scenarios: thinScenarios(60),
		Steps:     40,
		Seed:      3,
		NewBatchMonitor: func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
		},
		Telemetry: &TelemetryConfig{FromMonitor: true},
	}
	got, res := collectRobustness(t, cfg)
	if len(got) != len(res.Traces)*cfg.Steps {
		t.Fatalf("%d robustness events, want %d", len(got), len(res.Traces)*cfg.Steps)
	}
	var violations int
	for sess, tr := range res.Traces {
		verdicts, streamed := replayStreaming(t, tr)
		for i, v := range verdicts {
			sv := streamed[i]
			ev, ok := got[robKey{sess, 0, i}]
			if !ok {
				t.Fatalf("session %d step %d: no robustness event", sess, i)
			}
			// The emitted event is the monitor's own streaming verdict.
			want := robVal{rob: sv.MinRobust, margin: sv.Margin, rule: sv.WorstRule, mrule: sv.Rule, hazard: sv.Hazard}
			if ev != want {
				t.Fatalf("session %d step %d: event %+v, replayed monitor %+v", sess, i, ev, want)
			}
			if tr.Samples[i].Alarm != v.Alarm {
				t.Fatalf("session %d step %d: replay alarm %v, trace %v", sess, i, v.Alarm, tr.Samples[i].Alarm)
			}
			if v.Margin < 0 {
				violations++
			}
		}
	}
	if violations == 0 {
		t.Fatal("no violations across a fault campaign — comparison is vacuous")
	}

	// A batch monitor without lane margins must be rejected at shard
	// start: the Guideline rules and a DT.
	rng := rand.New(rand.NewSource(4))
	X := make([][]float64, 64)
	y := make([]int, len(X))
	for i := range X {
		X[i] = make([]float64, monitor.FeatureDim)
		X[i][0] = 60 + 200*rng.Float64()
		if X[i][0] > 180 {
			y[i] = 1
		}
	}
	tree, err := ml.FitTree(X, y, ml.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRingSink(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, marginless := range []func() (monitor.BatchMonitor, error){
		func() (monitor.BatchMonitor, error) { return monitor.NewBatchGuideline(monitor.GuidelineConfig{}) },
		func() (monitor.BatchMonitor, error) { return monitor.NewBatchML("DT", tree) },
	} {
		bad := cfg
		bad.NewBatchMonitor = marginless
		bad.Sinks = []Sink{ring}
		_, err := Run(context.Background(), bad)
		if err == nil || !strings.Contains(err.Error(), "lane-margin batch monitor") {
			t.Fatalf("FromMonitor with a margin-less monitor: err %v, want a lane-margin rejection", err)
		}
	}
	// And FromMonitor without NewBatchMonitor is a config error.
	noMon := cfg
	noMon.NewBatchMonitor = nil
	noMon.Sinks = []Sink{ring}
	if _, err := Run(context.Background(), noMon); err == nil {
		t.Fatal("FromMonitor without NewBatchMonitor should fail")
	}
}

// TestFromMonitorMarginsMatchSeparateStreamSet: monitor-sourced margins
// must be identical to what the dedicated, shard-batched telemetry rule
// set computes under the same rules and thresholds (the evaluations are
// interchangeable; FromMonitor just avoids paying for the second one).
func TestFromMonitorMarginsMatchSeparateStreamSet(t *testing.T) {
	base := Config{
		Platform:  glucosymPlatform(),
		Patients:  []int{0},
		Scenarios: thinScenarios(80),
		Steps:     40,
		Seed:      7,
		NewBatchMonitor: func() (monitor.BatchMonitor, error) {
			return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
		},
	}
	fromMon := base
	fromMon.Telemetry = &TelemetryConfig{FromMonitor: true}
	separate := base
	separate.Telemetry = &TelemetryConfig{}

	gotMon, _ := collectRobustness(t, fromMon)
	gotSep, _ := collectRobustness(t, separate)
	if len(gotMon) == 0 || len(gotMon) != len(gotSep) {
		t.Fatalf("event counts differ: %d vs %d", len(gotMon), len(gotSep))
	}
	for k, v := range gotMon {
		if sv, ok := gotSep[k]; !ok || sv != v {
			t.Fatalf("event %+v differs: monitor-sourced %+v vs stream-set %+v", k, v, sv)
		}
	}
}

// TestFleetMarginDeterministicAcrossParallelism pins the redesign's
// determinism requirement: under margin-scaled mitigation with sensor
// noise, both the traces (delivered rates depend on margins) and the
// per-patient margin histograms must be identical at any parallelism.
func TestFleetMarginDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallel int) ([]byte, string) {
		hist, err := NewHistSink(-5, 5, 50)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Platform:  glucosymPlatform(),
			Patients:  []int{0, 3},
			Scenarios: thinScenarios(60),
			Steps:     40,
			Seed:      42,
			Parallel:  parallel,
			Sensor:    &sensor.Config{NoiseSD: 2},
			NewBatchMonitor: func() (monitor.BatchMonitor, error) {
				return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
			},
			Mitigate:   true,
			Mitigation: closedloop.MitigationConfig{ScaleByMargin: true},
			Telemetry:  &TelemetryConfig{FromMonitor: true},
			Sinks:      []Sink{hist},
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var scaled int
		for _, tr := range res.Traces {
			for _, s := range tr.Samples {
				// Margin-scaled mitigation produces deliveries strictly
				// between the command and the fixed corrective action.
				if s.Mitigated && s.Delivered != 0 && s.Delivered != s.Rate {
					scaled++
				}
			}
		}
		if scaled == 0 {
			t.Fatal("no margin-scaled deliveries — determinism check is vacuous")
		}
		return tracesCSV(t, res.Traces), hist.Render()
	}
	goldenTraces, goldenHist := run(1)
	for _, p := range []int{runtime.NumCPU(), 5} {
		traces, hist := run(p)
		if !bytes.Equal(traces, goldenTraces) {
			t.Fatalf("Parallel=%d margin-scaled traces differ from Parallel=1", p)
		}
		if hist != goldenHist {
			t.Fatalf("Parallel=%d margin histograms differ from Parallel=1", p)
		}
	}
}

// countLines returns the number of newline-terminated JSON records in a
// file, failing on any non-JSON line.
func countLines(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var n int64
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s line %d is not JSON: %v", path, n+1, err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestLogSinkRotationBySize: the size trigger must rotate at the bound,
// number rotated files monotonically, and lose no records — the sum of
// lines across the active and rotated files equals the emitted count.
func TestLogSinkRotationBySize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := NewRotatingLogSink(path, RotationPolicy{MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const events = 500
	for i := 0; i < events; i++ {
		ev := Event{Kind: EventRobustness, Session: i, PatientIdx: i % 5, Step: i, Margin: float64(i) / 7}
		if err := sink.Emit(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Rotations() == 0 {
		t.Fatal("size trigger never rotated")
	}
	total := countLines(t, path)
	for _, rf := range sink.RotatedFiles() {
		st, err := os.Stat(rf)
		if err != nil {
			t.Fatal(err)
		}
		// Files may overshoot MaxBytes by at most one record.
		if st.Size() > 2048+512 {
			t.Fatalf("rotated file %s is %d bytes, far over the 2048 bound", rf, st.Size())
		}
		total += countLines(t, rf)
	}
	if total != events {
		t.Fatalf("%d records across all files, want %d — rotation dropped records", total, events)
	}
	if got := sink.Written(); got != events {
		t.Fatalf("sink counted %d writes, want %d", got, events)
	}
}

// TestLogSinkRotationByAge: the age trigger rotates once the active
// file has been open MaxAge, using the injectable clock, and never
// rotates an empty file.
func TestLogSinkRotationByAge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := NewRotatingLogSink(path, RotationPolicy{MaxAge: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1_700_000_000, 0)
	sink.now = func() time.Time { return clock }
	sink.openedAt = clock

	// Age elapses on an empty file: no rotation (nothing to retire).
	clock = clock.Add(2 * time.Minute)
	if err := sink.Emit(Event{Kind: EventSessionStart}); err != nil {
		t.Fatal(err)
	}
	if sink.Rotations() != 0 {
		t.Fatal("rotated an empty file on the age trigger")
	}
	// Next emission after the age bound rotates first.
	clock = clock.Add(2 * time.Minute)
	if err := sink.Emit(Event{Kind: EventSessionDone, Step: 1}); err != nil {
		t.Fatal(err)
	}
	if sink.Rotations() != 1 {
		t.Fatalf("age trigger rotated %d times, want 1", sink.Rotations())
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	total := countLines(t, path)
	for _, rf := range sink.RotatedFiles() {
		total += countLines(t, rf)
	}
	if total != 2 {
		t.Fatalf("%d records across files, want 2", total)
	}
}

// TestLogSinkRetentionPrunes: only the Keep newest rotated files
// survive, numbering keeps increasing, and a reopened sink resumes the
// numbering instead of overwriting history.
func TestLogSinkRetentionPrunes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := NewRotatingLogSink(path, RotationPolicy{MaxBytes: 256, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := sink.Emit(Event{Kind: EventRobustness, Session: i, Step: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Rotations() < 3 {
		t.Fatalf("only %d rotations; retention path untested", sink.Rotations())
	}
	files := sink.RotatedFiles()
	if len(files) != 2 {
		t.Fatalf("retained %v, want exactly 2 rotated files", files)
	}
	// The retained files are the newest (highest-numbered) ones:
	// numbering starts at 1 with no preexisting files, so the newest
	// index equals the rotation count.
	newestIdx := int(sink.Rotations())
	if want := fmt.Sprintf("%s.%d", path, newestIdx); files[1] != want {
		t.Fatalf("newest retained file %s, want %s", files[1], want)
	}

	// Reopen: numbering resumes past the survivors.
	sink2, err := NewRotatingLogSink(path, RotationPolicy{MaxBytes: 256, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := sink2.Emit(Event{Kind: EventRobustness, Session: i, Step: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	idxs := rotatedIndices(path)
	if len(idxs) != 2 {
		t.Fatalf("reopened sink retained indices %v, want 2", idxs)
	}
	if idxs[1] <= newestIdx {
		t.Fatalf("reopened sink numbered up to %d, want past %d", idxs[1], newestIdx)
	}
}

// TestShardedSinksDeterministicAcrossParallelism is the sharded
// delivery contract: with per-worker sink buffers merged in canonical
// order, the JSONL byte stream must be identical at any parallelism
// level — the same golden-determinism bar the traces meet — with
// completion counters re-stamped 1..N along the merged order and
// progress marks re-synthesized deterministically.
func TestShardedSinksDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallel int) []byte {
		var buf bytes.Buffer
		sink := NewLogSink(&buf)
		cfg := Config{
			Platform:  glucosymPlatform(),
			Patients:  []int{0, 2},
			Scenarios: thinScenarios(60),
			Steps:     30,
			Seed:      3,
			Parallel:  parallel,
			Sensor:    &sensor.Config{NoiseSD: 2},
			NewBatchMonitor: func() (monitor.BatchMonitor, error) {
				return monitor.NewBatchCAWOT(scs.TableI(), scs.Params{})
			},
			Telemetry:     &TelemetryConfig{FromMonitor: true},
			Sinks:         []Sink{sink},
			ProgressEvery: 7,
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Completed) != len(cfg.Patients)*len(cfg.Scenarios) {
			t.Fatalf("completed %d sessions", res.Completed)
		}
		return buf.Bytes()
	}

	golden := run(1)
	for _, p := range []int{runtime.NumCPU(), 5} {
		if got := run(p); !bytes.Equal(got, golden) {
			t.Fatalf("Parallel=%d sharded sink stream differs from Parallel=1", p)
		}
	}

	// The canonical stream is session-major with re-stamped completion
	// counts: dones appear in session order carrying completed=1..N,
	// and every progress mark trails a multiple-of-7 done.
	sc := bufio.NewScanner(bytes.NewReader(golden))
	var dones, progress int64
	prevSession := -1
	for sc.Scan() {
		var rec struct {
			Kind      string `json:"kind"`
			Session   int    `json:"session"`
			Completed int64  `json:"completed"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Kind {
		case "done":
			dones++
			if rec.Completed != dones {
				t.Fatalf("done #%d carries completed=%d — not re-stamped in merge order", dones, rec.Completed)
			}
			if rec.Session < prevSession {
				t.Fatalf("done for session %d after session %d — not canonical order", rec.Session, prevSession)
			}
			prevSession = rec.Session
		case "progress":
			progress++
			if rec.Completed%7 != 0 {
				t.Fatalf("progress at completed=%d, want multiples of 7", rec.Completed)
			}
		}
	}
	if dones == 0 || progress != dones/7 {
		t.Fatalf("%d dones, %d progress marks, want %d", dones, progress, dones/7)
	}
}

// TestShardedSinkErrorDetaches: a sink failing at an epoch barrier
// mid-run stays detached across every later barrier, healthy sinks
// keep receiving the full stream, and the error surfaces from Run
// without aborting the fleet.
func TestShardedSinkErrorDetaches(t *testing.T) {
	bad := &failingSink{n: 10}
	good, err := NewRingSink(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sinkFleetConfig()
	cfg.Sinks = []Sink{bad, good}
	cfg.SinkEpoch = 1
	cfg.MaxLivePerShard = 2 // queue slots so barriers deliver throughout the run
	epochs := 0
	cfg.sinkEpochHook = func(_, _, delivered int) {
		if delivered > 0 {
			epochs++
		}
	}
	res, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("sink error did not surface from Run")
	}
	if res.Completed != int64(len(cfg.Patients)*len(thinScenarios(60))) {
		t.Fatalf("run did not complete: %d sessions", res.Completed)
	}
	if bad.after != 0 {
		t.Fatalf("failing sink received %d events after its error", bad.after)
	}
	if good.Total() <= int64(bad.seen) {
		t.Fatalf("healthy sink stalled at %d events", good.Total())
	}
	if epochs < 2 {
		t.Fatalf("%d delivering epochs — the detach was not exercised across barriers", epochs)
	}
}

// TestLogSinkAgeSurvivesReopen: an age-only policy must age a resumed
// file from its last write (ModTime), not from the reopen, so periodic
// restarts cannot postpone rotation forever.
func TestLogSinkAgeSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	first, err := NewRotatingLogSink(path, RotationPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Emit(Event{Kind: EventSessionStart}); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	// Backdate the file two hours, then reopen: the resumed sink must
	// treat it as already past MaxAge and rotate before the next record.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	second, err := NewRotatingLogSink(path, RotationPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Emit(Event{Kind: EventSessionDone, Step: 1}); err != nil {
		t.Fatal(err)
	}
	if second.Rotations() != 1 {
		t.Fatalf("resumed sink rotated %d times, want 1 (aged from ModTime)", second.Rotations())
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogSinkEmitAfterCloseErrors: emitting into a closed sink must
// fail loudly instead of silently buffering records no flush will
// persist; Close is idempotent.
func TestLogSinkEmitAfterCloseErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := NewRotatingLogSink(path, RotationPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(Event{Kind: EventSessionStart}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(Event{Kind: EventSessionDone}); err == nil {
		t.Fatal("emit after Close succeeded silently")
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := countLines(t, path); got != 1 {
		t.Fatalf("%d records persisted, want 1", got)
	}
}

// TestHistSinkAlertFloor pins margin-floor alerting: only robustness
// margins strictly below the floor alert, the callback runs without the
// sink lock held (re-entrant reads must not deadlock), the alert log is
// bounded at maxAlerts while AlertCount keeps the lifetime total, and
// non-robustness events never alert regardless of their margin.
func TestHistSinkAlertFloor(t *testing.T) {
	sink, err := NewHistSink(-5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	var fired []Alert
	sink.SetAlertFloor(-1, func(al Alert) {
		// Re-entrant read: deadlocks if Emit fires the callback under lock.
		_ = sink.AlertCount()
		fired = append(fired, al)
	})

	emit := func(kind EventKind, margin float64) {
		if err := sink.Emit(Event{Kind: kind, Session: 7, PatientIdx: 2, Replica: 3,
			Group: "acme", Step: 11, Margin: margin, MarginRule: 4}); err != nil {
			t.Fatal(err)
		}
	}
	emit(EventRobustness, 0.5)        // healthy margin
	emit(EventRobustness, -0.5)       // negative but above the floor
	emit(EventRobustness, -1)         // exactly at the floor: not a breach
	emit(EventAlarm, -4)              // wrong kind: histograms and alerts ignore it
	emit(EventRobustness, math.NaN()) // dropped before alerting
	emit(EventRobustness, -2.5)       // breach
	if n := sink.AlertCount(); n != 1 {
		t.Fatalf("AlertCount = %d after one breach, want 1", n)
	}
	if len(fired) != 1 {
		t.Fatalf("callback fired %d times, want 1", len(fired))
	}
	want := Alert{Session: 7, PatientIdx: 2, Replica: 3, Group: "acme", Step: 11, Margin: -2.5, Rule: 4}
	if fired[0] != want {
		t.Errorf("callback alert = %+v, want %+v", fired[0], want)
	}
	if got := sink.Alerts(); len(got) != 1 || got[0] != want {
		t.Errorf("Alerts() = %+v, want [%+v]", got, want)
	}

	// Roll the bounded log over: the lifetime count keeps growing while
	// the retained window holds only the most recent maxAlerts breaches.
	for i := 0; i < maxAlerts+10; i++ {
		emit(EventRobustness, -3)
	}
	if n := sink.AlertCount(); n != int64(1+maxAlerts+10) {
		t.Fatalf("lifetime AlertCount = %d, want %d", n, 1+maxAlerts+10)
	}
	if got := sink.Alerts(); len(got) != maxAlerts {
		t.Fatalf("retained alert log holds %d, want bounded at %d", len(got), maxAlerts)
	}
	if len(fired) != 1+maxAlerts+10 {
		t.Fatalf("callback fired %d times, want %d", len(fired), 1+maxAlerts+10)
	}
}
