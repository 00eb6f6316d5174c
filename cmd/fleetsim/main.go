// Command fleetsim drives the streaming fleet engine: N patients x M
// scenarios as concurrent closed-loop sessions on a sharded worker pool,
// with per-session deterministic RNGs, optional CGM sensor noise, and a
// live progress/hazard event stream. With -duration it runs in
// continuous serving mode — completed sessions restart as fresh replicas
// and trace buffers are recycled — and reports sustained throughput;
// without it, the session matrix runs once to completion.
//
// Each worker shard advances its whole live window's physiology through
// one shard-batched struct-of-arrays integration per control cycle
// (sim.BatchPatient).
//
// Telemetry: with -stl every session streams its per-cycle STL
// robustness margin — each worker shard evaluates its whole live window
// through one shard-batched rule-stream push per cycle. With -monitor
// cawot the streaming context-aware monitor rides in the loop, evaluated
// shard-batched (add -mitigate for Algorithm 1, -scale-margin to scale
// corrections by violation depth), and -stl-from-monitor emits the
// monitor's own margins instead of a second rule evaluation. Events reach the console and the -sink outputs in
// canonical (parallelism-independent) order, merged from per-worker
// buffers every -sink-epoch lock-step rounds, so delivery stays live
// with bounded buffers. -sink persists the event stream: an
// append-only JSONL log (rotated and retired per
// -sink-rotate-bytes/-sink-rotate-age/-sink-keep), a fixed-size ring
// snapshot, and per-patient margin histograms, in any combination.
//
// Checkpointing: with -duration, -snapshot drains the fleet at an
// epoch-aligned admission gate when the duration elapses and writes
// every live session's bit-exact state to a sealed file; -restore
// resumes such a file — run with the same seed, platform, and telemetry
// flags, the resumed sink stream continues byte-identically where the
// drained run cut it.
//
//	fleetsim -platform glucosym -patients 5 -scenarios 88 -sessions 2000 \
//	         -parallel 8 -duration 30s -seed 1 -noise 2.5 \
//	         -monitor cawot -mitigate -scale-margin -stl-from-monitor \
//	         -sink log,hist -sink-path events.jsonl \
//	         -sink-rotate-bytes 10000000 -sink-keep 5 -sink-epoch 64
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	apsmonitor "repro"
	"repro/internal/fault"
	"repro/internal/sensor"
)

func main() {
	var (
		platformName = flag.String("platform", "glucosym", "platform: glucosym or t1ds2013")
		patients     = flag.Int("patients", 0, "limit to the first N patients (0 = whole cohort)")
		scenarios    = flag.Int("scenarios", 0, "limit to the first M fault scenarios (0 = full 882 matrix)")
		scenarioFile = flag.String("scenario-file", "", "run the scenario programs declared in this file (canonical text form, see internal/fault) instead of the campaign matrix")
		sessions     = flag.Int("sessions", 0, "concurrent session slots (0 = one per patient x scenario)")
		parallel     = flag.Int("parallel", 0, "worker shards (0 = NumCPU)")
		duration     = flag.Duration("duration", 0, "continuous serving mode: run for this long, recycling sessions (0 = run the matrix once)")
		seed         = flag.Int64("seed", 1, "master seed for per-session RNG streams")
		steps        = flag.Int("steps", 150, "control cycles per session")
		noise        = flag.Float64("noise", 0, "CGM sensor noise SD in mg/dL (0 = clean sensor; negative = sensor error channel with AR(1) noise explicitly disabled)")
		progress     = flag.Int("progress", 0, "print a progress line every k completed sessions")
		monitorName  = flag.String("monitor", "", "attach a safety monitor: cawot (the streaming context-aware monitor, shard-batched)")
		mitigate     = flag.Bool("mitigate", false, "enable Algorithm 1 mitigation (requires -monitor)")
		scaleMargin  = flag.Bool("scale-margin", false, "scale mitigation corrections by the verdict's violation depth (requires -mitigate)")
		stlTelem     = flag.Bool("stl", false, "stream per-cycle STL robustness margins (Table I rules, shard-batched streaming engine)")
		stlFromMon   = flag.Bool("stl-from-monitor", false, "emit the monitor's own streaming margins instead of a separate rule set (requires -monitor; implies -stl)")
		stlEvery     = flag.Int("stl-every", 1, "emit a robustness event every k cycles per session")
		sinkList     = flag.String("sink", "", "comma-separated telemetry sinks: log (JSONL append), ring (snapshot buffer), hist (per-patient margin histograms)")
		sinkPath     = flag.String("sink-path", "fleet-events.jsonl", "output path for the log sink")
		sinkRotBytes = flag.Int64("sink-rotate-bytes", 0, "rotate the log sink once the file reaches this many bytes (0 = no size trigger)")
		sinkRotAge   = flag.Duration("sink-rotate-age", 0, "rotate the log sink once the file is this old (0 = no age trigger)")
		sinkKeep     = flag.Int("sink-keep", 0, "retain at most this many rotated log files, deleting older ones (0 = keep all)")
		sinkEpoch    = flag.Int("sink-epoch", 0, "merge the per-worker event buffers and deliver them every k lock-step rounds (0 = the fleet default, 64)")
		ringSize     = flag.Int("ring-size", 1024, "ring sink capacity (events)")
		alertFloor   = flag.Float64("alert-floor", math.NaN(), "with -sink hist: record an alert whenever a robustness margin falls below this floor (NaN = off)")
		alertPct     = flag.Float64("alert-pct", math.NaN(), "with -sink hist: record an alert whenever a margin falls below this percentile of the observed distribution, e.g. 0.05 for a p05 floor (NaN = off)")
		verbose      = flag.Bool("v", false, "stream alarm/hazard events (with -stl: also rule-violation margins)")
		snapshotPath = flag.String("snapshot", "", "with -duration: drain the fleet at an epoch-aligned admission gate when the duration elapses and write the sealed snapshot here")
		restorePath  = flag.String("restore", "", "with -duration: resume a fleet from a -snapshot file instead of dealing fresh sessions (requires the same seed, platform, and telemetry flags as the drained run)")
	)
	flag.Parse()

	platform, err := apsmonitor.PlatformByName(*platformName)
	if err != nil {
		fail(err)
	}
	cfg := apsmonitor.FleetConfig{
		Platform:      apsmonitor.FleetPlatform(platform),
		Sessions:      *sessions,
		Steps:         *steps,
		Parallel:      *parallel,
		Seed:          *seed,
		ProgressEvery: *progress,
	}
	if *patients > 0 {
		for i := 0; i < *patients && i < platform.NumPatients; i++ {
			cfg.Patients = append(cfg.Patients, i)
		}
	}
	// The scenario table is always declared explicitly — continuous mode
	// (fleet.Config.Validate) refuses to default a serving fleet to the
	// full 882-scenario campaign silently.
	if *scenarioFile != "" {
		if *scenarios > 0 {
			fail(fmt.Errorf("-scenario-file replaces the campaign matrix; drop -scenarios"))
		}
		text, err := os.ReadFile(*scenarioFile)
		if err != nil {
			fail(err)
		}
		progs, err := fault.ParsePrograms(string(text))
		if err != nil {
			fail(fmt.Errorf("%s: %w", *scenarioFile, err))
		}
		cfg.Scenarios = progs
	} else {
		table := fault.CampaignPrograms(nil)
		if *scenarios > 0 && *scenarios < len(table) {
			table = table[:*scenarios]
		}
		cfg.Scenarios = table
	}
	if *noise != 0 {
		// Negative means "sensor model on, AR(1) noise explicitly off":
		// calibration gain/drift and dropout behavior still apply, which
		// is distinct from the clean pass-through sensor at 0.
		cfg.Sensor = &sensor.Config{NoiseSD: *noise}
	}
	switch *monitorName {
	case "":
		if *mitigate || *stlFromMon {
			fail(fmt.Errorf("-mitigate and -stl-from-monitor require -monitor"))
		}
	case "cawot":
		cfg.NewBatchMonitor = func() (apsmonitor.BatchMonitor, error) {
			return apsmonitor.NewBatchCAWOTMonitor(apsmonitor.TableI())
		}
	default:
		fail(fmt.Errorf("unknown monitor %q (want cawot)", *monitorName))
	}
	cfg.Mitigate = *mitigate
	if *scaleMargin {
		if !*mitigate {
			fail(fmt.Errorf("-scale-margin requires -mitigate"))
		}
		cfg.Mitigation.ScaleByMargin = true
	}
	if *sinkKeep > 0 && *sinkRotBytes <= 0 && *sinkRotAge <= 0 {
		fail(fmt.Errorf("-sink-keep requires a rotation trigger (-sink-rotate-bytes or -sink-rotate-age)"))
	}
	if (*sinkRotBytes > 0 || *sinkRotAge > 0) && !sinkSelected(*sinkList, "log") {
		fail(fmt.Errorf("-sink-rotate-bytes/-sink-rotate-age apply to the log sink; add -sink log"))
	}
	if !math.IsNaN(*alertFloor) && !sinkSelected(*sinkList, "hist") {
		fail(fmt.Errorf("-alert-floor applies to the histogram sink; add -sink hist"))
	}
	if !math.IsNaN(*alertPct) && !sinkSelected(*sinkList, "hist") {
		fail(fmt.Errorf("-alert-pct applies to the histogram sink; add -sink hist"))
	}
	if *stlTelem || *stlFromMon {
		cfg.Telemetry = &apsmonitor.FleetTelemetryConfig{
			Every:       *stlEvery,
			FromMonitor: *stlFromMon,
		}
	}

	var (
		logSink  *apsmonitor.FleetLogSink
		logFile  *os.File
		ringSink *apsmonitor.FleetRingSink
		histSink *apsmonitor.FleetHistSink
	)
	cfg.SinkEpoch = *sinkEpoch
	if *sinkList != "" {
		for _, name := range strings.Split(*sinkList, ",") {
			switch strings.TrimSpace(name) {
			case "log":
				if *sinkRotBytes > 0 || *sinkRotAge > 0 {
					// With a rotation policy the sink owns its file: it
					// appends across restarts (numbering resumes past
					// existing rotated files) and rotates/retires per the
					// policy, bounding disk for continuous serving.
					logSink, err = apsmonitor.NewRotatingFleetLogSink(*sinkPath, apsmonitor.FleetLogRotation{
						MaxBytes: *sinkRotBytes,
						MaxAge:   *sinkRotAge,
						Keep:     *sinkKeep,
					})
					if err != nil {
						fail(err)
					}
				} else {
					// Without rotation each run replaces the file, so the
					// artifact is exactly one run's event stream.
					if logFile, err = os.Create(*sinkPath); err != nil {
						fail(err)
					}
					logSink = apsmonitor.NewFleetLogSink(logFile)
				}
				cfg.Sinks = append(cfg.Sinks, logSink)
			case "ring":
				if ringSink, err = apsmonitor.NewFleetRingSink(*ringSize); err != nil {
					fail(err)
				}
				cfg.Sinks = append(cfg.Sinks, ringSink)
			case "hist":
				// Margins are robustness units (min across mg/dL-, mg/dL/min-
				// and U-scaled atoms); the serving distribution concentrates
				// in single digits.
				if histSink, err = apsmonitor.NewFleetHistSink(-5, 5, 50); err != nil {
					fail(err)
				}
				if !math.IsNaN(*alertFloor) {
					histSink.SetAlertFloor(*alertFloor, nil)
				}
				if !math.IsNaN(*alertPct) {
					if err := histSink.SetAlertPercentile(*alertPct, 0, nil); err != nil {
						fail(err)
					}
				}
				cfg.Sinks = append(cfg.Sinks, histSink)
			default:
				fail(fmt.Errorf("unknown sink %q (want log, ring, or hist)", name))
			}
		}
	}

	// Checkpointing rides the admission-gate protocol: -snapshot drains
	// the fleet at an epoch-aligned gate into a sealed file, -restore
	// resumes one. Both therefore attach an admission controller and
	// require continuous mode, and the gate period is pinned to the sink
	// epoch so every gate is drain-aligned.
	var adm *apsmonitor.FleetAdmissions
	var restored *apsmonitor.FleetSnapshot
	if *snapshotPath != "" || *restorePath != "" {
		if *duration <= 0 {
			fail(fmt.Errorf("-snapshot and -restore require -duration (the drain lands on a continuous fleet's admission gate)"))
		}
		adm = apsmonitor.NewFleetAdmissions()
		cfg.Admissions = adm
		cfg.AdmitEvery = *sinkEpoch
		if cfg.AdmitEvery == 0 {
			cfg.AdmitEvery = 64 // the fleet's default sink epoch
		}
		if *restorePath != "" {
			data, err := os.ReadFile(*restorePath)
			if err != nil {
				fail(err)
			}
			if restored, err = apsmonitor.DecodeFleetSnapshot(data); err != nil {
				fail(err)
			}
			cfg.Restore = restored
			cfg.Sessions = 0 // the snapshot replaces the static slot set
		} else if cfg.Sessions == 0 {
			// An admission-controlled fleet does not default to the full
			// matrix on its own; mirror the one-per-pair default here.
			nP := len(cfg.Patients)
			if nP == 0 {
				nP = platform.NumPatients
			}
			cfg.Sessions = nP * len(cfg.Scenarios)
		}
		cfg.MaxSessions = cfg.Sessions
		if restored != nil && len(restored.Sessions) > cfg.MaxSessions {
			cfg.MaxSessions = len(restored.Sessions)
		}
		if cfg.MaxSessions == 0 {
			cfg.MaxSessions = 1
		}
	}

	ctx := context.Background()
	if *duration > 0 {
		cfg.Continuous = true
		if *snapshotPath == "" {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *duration)
			defer cancel()
		}
	} else {
		// One-shot fleets can be huge; traces are only summarized here,
		// so recycle them instead of retaining the full matrix.
		cfg.DiscardTraces = true
	}

	// With -snapshot the duration ends the run through a terminal drain
	// instead of a context cancellation: the drain gate serializes every
	// live session and RunFleet returns cleanly.
	var snapCh chan *apsmonitor.FleetSnapshot
	if *snapshotPath != "" {
		snapCh = make(chan *apsmonitor.FleetSnapshot, 1)
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			time.Sleep(*duration)
			dr := <-adm.Drain()
			if dr.Err != nil {
				fmt.Fprintln(os.Stderr, "fleetsim: snapshot drain:", dr.Err)
				snapCh <- nil
				cancel() // the fleet kept running; stop it the plain way
				return
			}
			snapCh <- dr.Snapshot
		}()
	}

	telem := &consoleSink{verbose: *verbose, minMargin: math.Inf(1)}
	cfg.Sinks = append(cfg.Sinks, telem)

	start := time.Now()
	res, err := apsmonitor.RunFleet(ctx, cfg)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	mode := "one-shot"
	if cfg.Continuous {
		mode = "continuous"
	}
	fmt.Printf("fleet: %s on %s, %d session slots, seed %d\n",
		mode, platform.Name, res.Sessions, *seed)
	fmt.Printf("  completed:  %d sessions (%d hazardous, %d alarmed)\n",
		res.Completed, res.Hazardous, res.Alarmed)
	fmt.Printf("  steps:      %d control cycles in %v\n", res.Steps, elapsed.Round(time.Millisecond))
	secs := elapsed.Seconds()
	if secs > 0 {
		fmt.Printf("  throughput: %.0f steps/s, %.1f sessions/s\n",
			float64(res.Steps)/secs, float64(res.Completed)/secs)
	}
	if cfg.Telemetry != nil && telem.events > 0 {
		fmt.Printf("  stl:        %d margins streamed, %d rule violations, min margin %.3f (rule %d)\n",
			telem.events, telem.violations, telem.minMargin, telem.minRule)
	}
	if restored != nil {
		fmt.Printf("  restored:   %d sessions from %s\n", len(restored.Sessions), *restorePath)
	}
	if snapCh != nil {
		if snap := <-snapCh; snap != nil {
			sealed := snap.Encode()
			if err := os.WriteFile(*snapshotPath, sealed, 0o600); err != nil {
				fail(err)
			}
			fmt.Printf("  snapshot:   %d sessions (%d bytes) -> %s\n", len(snap.Sessions), len(sealed), *snapshotPath)
		}
	}
	if logSink != nil {
		fmt.Printf("  log sink:   %d events -> %s", logSink.Written(), *sinkPath)
		if n := logSink.Rotations(); n > 0 {
			fmt.Printf(" (%d rotations, %d rotated files retained)", n, len(logSink.RotatedFiles()))
		}
		fmt.Println()
		if err := logSink.Close(); err != nil {
			fail(err)
		}
		if logFile != nil {
			if err := logFile.Close(); err != nil {
				fail(err)
			}
		}
	}
	if ringSink != nil {
		snap := ringSink.Snapshot()
		fmt.Printf("  ring sink:  %d events retained of %d seen; newest:\n", len(snap), ringSink.Total())
		for i := len(snap) - 3; i < len(snap); i++ {
			if i >= 0 {
				fmt.Printf("    %s\n", snap[i])
			}
		}
	}
	if histSink != nil {
		fmt.Printf("  hist sink:\n")
		for _, line := range strings.Split(strings.TrimRight(histSink.Render(), "\n"), "\n") {
			fmt.Printf("    %s\n", line)
		}
		if !math.IsNaN(*alertFloor) || !math.IsNaN(*alertPct) {
			var floors []string
			if !math.IsNaN(*alertFloor) {
				floors = append(floors, fmt.Sprintf("floor %.3f", *alertFloor))
			}
			if !math.IsNaN(*alertPct) {
				if f, live := histSink.AlertPercentileFloor(); live {
					floors = append(floors, fmt.Sprintf("p%g floor %.3f", *alertPct*100, f))
				} else {
					floors = append(floors, fmt.Sprintf("p%g floor (not enough samples)", *alertPct*100))
				}
			}
			fmt.Printf("  alerts:     %d margins below %s\n", histSink.AlertCount(), strings.Join(floors, ", "))
			alerts := histSink.Alerts()
			for i := len(alerts) - 3; i < len(alerts); i++ {
				if i >= 0 {
					a := alerts[i]
					fmt.Printf("    session %d (patient %d) margin %.3f (rule %d) at step %d\n",
						a.Session, a.PatientIdx, a.Margin, a.Rule, a.Step)
				}
			}
		}
	}
}

// consoleSink prints the progress log (with -v also alarms, hazards, and
// rule violations) as events are delivered, and summarizes the
// robustness stream for the final report.
type consoleSink struct {
	verbose    bool
	events     int64
	violations int64
	minMargin  float64
	minRule    int
}

// Emit implements apsmonitor.FleetSink.
func (c *consoleSink) Emit(ev apsmonitor.FleetEvent) error {
	switch ev.Kind {
	case apsmonitor.FleetSessionStart, apsmonitor.FleetSessionDone, apsmonitor.FleetSessionEvict:
		// Lifecycle events are summarized from FleetResult after the run;
		// printing them would drown the progress log. (Evictions only
		// occur on admission-controlled fleets — fleetd's territory —
		// never in this CLI.)
	case apsmonitor.FleetProgress:
		fmt.Println(ev)
	case apsmonitor.FleetAlarm, apsmonitor.FleetHazard:
		if c.verbose {
			fmt.Println(ev)
		}
	case apsmonitor.FleetRobustness:
		c.events++
		if ev.Margin < 0 {
			c.violations++
			if c.verbose {
				fmt.Println(ev)
			}
		}
		if ev.Margin < c.minMargin {
			c.minMargin = ev.Margin
			c.minRule = ev.MarginRule
		}
	}
	return nil
}

// Flush implements apsmonitor.FleetSink.
func (c *consoleSink) Flush() error { return nil }

// sinkSelected reports whether the comma-separated -sink list names the
// given sink.
func sinkSelected(list, name string) bool {
	for _, s := range strings.Split(list, ",") {
		if strings.TrimSpace(s) == name {
			return true
		}
	}
	return false
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fleetsim:", err)
	os.Exit(1)
}
