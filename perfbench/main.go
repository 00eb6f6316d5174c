// Command perfbench is the repository benchmark. Four workloads each own
// layers no other workload runs:
//
//   - campaign: the paper's Section V-B fault matrix over both cohorts
//     on the batched fleet engine;
//   - serve: fleetd in-process behind a loopback listener, one streamed
//     base tenant plus a closed-loop churn client;
//   - falsify: the margin-guided scenario search on the scalar loop;
//   - paper: the cmd/experiments pipeline at reduced scale.
//
// End-to-end metrics (set-up time, sustained throughput, peak memory) are
// measured with tracing off. With --trace 1 the workload runs twice,
// untraced then traced, and reports per-layer metrics timed from outside
// the program through the constructor hooks its API already takes (see
// hooks.go), plus the tracing overhead.
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; progress and summaries go to
// standard error. WORKLOADS.md records each workload's shape, operation
// accounting and layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// defaultSeed is the workload seed the pinned output values hold for.
const defaultSeed = 1

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every input to a smoke-test size; pinned values are
	// not checked then.
	small bool
}

// pinned reports whether the pinned output values apply to this run.
func (o options) pinned() bool { return o.seed == defaultSeed && !o.small }

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees, printed with tracing off. Every
// workload defines each of them; WORKLOADS.md gives the per-workload
// meaning of an operation and a block.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced metrics. A workload reports zero for a layer
// it does not run. The latency.* metrics are the workload's operation
// latency where it has one: admission on serve, time to a verified
// finding on falsify, time to each table on paper.
var perLayer = []metricDef{
	{"host.calib_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"latency.p50_ms", "ms"},
	{"latency.tail_ms", "ms"},
	{"latency.samples", "count"},
	{"latency.tail_pct", "%"},
	{"sim.glucosym.ns_per_lane_step", "ns"},
	{"sim.uvapadova.ns_per_lane_step", "ns"},
	{"sim.busy_share", "ratio"},
	{"sim.scalar_ns_per_step", "ns"},
	{"control.decides", "count"},
	{"control.ns_per_decide", "ns"},
	{"control.busy_share", "ratio"},
	{"fault.compile_ms", "ms"},
	{"fleet.rounds", "count"},
	{"fleet.round_us_p50", "us"},
	{"fleet.round_us_tail", "us"},
	{"fleet.round_other_share", "ratio"},
	{"fleet.session_start_us", "us"},
	{"fleet.shard_skew", "ratio"},
	{"fleet.epoch_round_extra_us", "us"},
	{"fleet.gate_round_extra_us", "us"},
	{"fleet.glucosym.sim_share", "ratio"},
	{"fleet.glucosym.control_share", "ratio"},
	{"fleet.glucosym.other_share", "ratio"},
	{"fleet.t1ds2013.sim_share", "ratio"},
	{"fleet.t1ds2013.control_share", "ratio"},
	{"fleet.t1ds2013.other_share", "ratio"},
	{"monitor.ns_per_step", "ns"},
	{"snapshot.request_ms_p50", "ms"},
	{"snapshot.request_ms_tail", "ms"},
	{"snapshot.bytes", "B"},
	{"snapshot.decode_us", "us"},
	{"fleetd.put_ms_p50", "ms"},
	{"fleetd.delete_ms_p50", "ms"},
	{"fleetd.admit_to_gate_ms_p50", "ms"},
	{"fleetd.gate_to_line_ms_p50", "ms"},
	{"fleetd.stream_lines", "count"},
	{"fleetd.stream_bytes", "B"},
	{"fleetd.dropped", "count"},
	{"fleetd.rejected", "count"},
	{"falsify.evals", "count"},
	{"falsify.polish_evals", "count"},
	{"falsify.skipped", "count"},
	{"falsify.useful_ratio", "ratio"},
	{"falsify.eval_ms_p50", "ms"},
	{"falsify.eval_ms_tail", "ms"},
	{"falsify.other_share", "ratio"},
	{"experiment.regeneration_s", "s"},
	{"experiment.campaign_s", "s"},
	{"experiment.figures_s", "s"},
	{"experiment.faultfree_s", "s"},
	{"experiment.suite_s", "s"},
	{"stllearn.learn_s", "s"},
	{"experiment.evaluate_s", "s"},
	{"experiment.mitigation_s", "s"},
	{"experiment.tableviii_s", "s"},
	{"experiment.ablation_s", "s"},
	{"experiment.ffgen_s", "s"},
	{"stllearn.examples", "count"},
	{"experiment.traces", "count"},
}

// phaseResult is one measured phase of a workload.
type phaseResult struct {
	seconds float64 // measured wall time
	// rate is the throughput: operations per second sustained in nine of
	// ten blocks of fixed work (see sustained).
	rate      float64
	latencyMs []float64 // per-operation latencies, reported per layer
	attempted int64
	failed    int64
	checkErrs []string
	// digest summarizes the outputs; a traced phase must reproduce the
	// untraced one's.
	digest string
	// layers holds per-layer metrics (traced phases only).
	layers map[string]float64
	// spans are the phase's coarse calls, written out after a traced run.
	spans *spanLog
}

func (p *phaseResult) checkf(format string, args ...any) {
	p.checkErrs = append(p.checkErrs, fmt.Sprintf(format, args...))
}

// bench is one workload.
type bench interface {
	// setUp builds the workload's inputs and runs its untimed warm-up
	// (for serve, it also starts the server and waits for the base
	// tenant's first telemetry line). It is timed and repeated
	// setupReps times; tearDown runs between repetitions.
	setUp() error
	setupReps() int
	// phase measures for a window of about the given seconds.
	phase(traced bool, seconds float64) (phaseResult, error)
	tearDown()
}

func newBench(o options) (bench, error) {
	switch o.workload {
	case "campaign":
		return &campaign{o: o}, nil
	case "serve":
		return &serve{o: o}, nil
	case "falsify":
		return &falsifyBench{o: o}, nil
	case "paper":
		return &paper{o: o}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want campaign, serve, falsify or paper)", o.workload)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// account folds one phase's operations and checks into the result. A
// failed check fails every operation of its phase.
func (r *result) account(p phaseResult) {
	r.Attempted += p.attempted
	if len(p.checkErrs) > 0 {
		r.Failed += p.attempted
		r.Correct = false
		for _, e := range p.checkErrs {
			logf("check failed: %s", e)
		}
		return
	}
	r.Failed += p.failed
	if p.failed > 0 {
		r.Correct = false
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func run(o options) (*result, error) {
	calib := calibrate()
	logf("%s seed %d, %gs, trace %v, host.calib_ms %.3f", o.workload, o.seed, o.seconds, o.trace, calib)
	b, err := newBench(o)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < b.setupReps(); i++ {
		if i > 0 {
			b.tearDown()
		}
		t0 := time.Now()
		if err := b.setUp(); err != nil {
			b.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.tearDown()
	logf("set-up %.4g s (median of %d: %.3g)", median(setups), len(setups), setups)

	res := &result{Correct: true, Metrics: make(map[string]metric)}
	put := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
	}
	if !o.trace {
		p, err := b.phase(false, o.seconds)
		if err != nil {
			return nil, err
		}
		res.account(p)
		logf("%.4g s measured, sustained %.6g/s%s", p.seconds, p.rate, latencyNote(p.latencyMs))
		put(endToEnd, map[string]float64{
			"setup_s":          median(setups),
			"throughput_per_s": p.rate,
			"peak_rss_mb":      peakRSSMB(),
		})
		return res, nil
	}

	pu, err := b.phase(false, o.seconds/2)
	if err != nil {
		return nil, err
	}
	pt, err := b.phase(true, o.seconds/2)
	if err != nil {
		return nil, err
	}
	if pu.digest != pt.digest {
		pt.checkf("traced outputs differ from untraced: %q vs %q", pt.digest, pu.digest)
	}
	res.account(pu)
	res.account(pt)
	values := pt.layers
	values["host.calib_ms"] = calib
	values["trace.overhead_pct"] = 100 * ratio(pu.rate-pt.rate, pu.rate)
	lat, _ := tailOf(pt.latencyMs) // too few samples reads as zero
	values["latency.p50_ms"] = median(pt.latencyMs)
	values["latency.tail_ms"] = lat.Value
	values["latency.samples"] = float64(lat.N)
	values["latency.tail_pct"] = lat.Pct
	for name := range values {
		if !isPerLayer(name) {
			return nil, fmt.Errorf("workload reported unknown per-layer metric %q", name)
		}
	}
	put(perLayer, values)
	if dir := os.Getenv("PERFBENCH_TRACE_DIR"); dir != "" && pt.spans != nil {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := pt.spans.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		logf("spans -> %s", path)
	}
	return res, nil
}

// latencyNote renders a phase's operation latencies for the log.
func latencyNote(ms []float64) string {
	if len(ms) == 0 {
		return ""
	}
	lat, _ := tailOf(ms)
	return fmt.Sprintf(", latency p50 %.4g ms, tail %v ms", median(ms), lat)
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// calibSink keeps the calibration loop's result alive.
var calibSink int

// calibrate times a fixed loop that calls nothing in the repository,
// the median of five repetitions in milliseconds: filling small hash
// maps with pseudo-random keys. Its speed follows the host's changes of
// speed for memory-heavy code (WORKLOADS.md), which a register-only
// loop barely sees. It tells host drift from a regression and never
// adjusts another number.
func calibrate() float64 {
	reps := make([]float64, 5)
	for r := range reps {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for range 32 {
			m := make(map[uint64]int)
			for range 16384 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				m[x%65536]++
			}
			calibSink += len(m)
		}
		reps[r] = float64(time.Since(t0)) / 1e6
	}
	return median(reps)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// derive mixes the workload seed with a per-use salt (splitmix64), so
// every generated input has its own stream.
func derive(seed int64, salt uint64) int64 {
	z := uint64(seed) + (salt+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "campaign, serve, falsify or paper")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; every input is generated from it")
	flag.IntVar(&seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run (untraced then traced halves)")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		logf("need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.seconds, o.trace = float64(seconds), trace == 1
	res, err := run(o)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
