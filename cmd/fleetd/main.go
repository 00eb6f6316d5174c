// Command fleetd serves the fleet control plane: one continuously
// running admission-controlled fleet behind a multi-tenant HTTP API.
// Tenants declare desired state (patients x fault scenarios and
// mitigation; every session runs the shard-batched CAWOT monitor) with
// PUT /v1/tenants/{id}; a reconcile loop admits and evicts sessions at
// the fleet's deterministic admission gates, and per-tenant telemetry
// streams back as JSONL or SSE from the epoch-merged sharded sinks.
//
//	fleetd -addr :8344 -platform glucosym -max-sessions 256 \
//	       -parallel 8 -seed 1 -token secret -alert-floor -0.5
//
//	curl -H 'Authorization: Bearer secret' -X PUT -d \
//	  '{"patients":[0,1],"scenarios":[3,4],"mitigate":true}' \
//	  localhost:8344/v1/tenants/acme
//	curl -N -H 'Authorization: Bearer secret' \
//	  localhost:8344/v1/tenants/acme/telemetry
//
// On SIGINT/SIGTERM the server drains: the fleet stops at its next
// gate, telemetry streams end, and in-flight requests finish before
// exit. With -snapshot-file the drain instead lands on an epoch-aligned
// admission gate and serializes the whole control plane — tenant
// registry plus every live session at its exact cycle — into a sealed
// snapshot; a later run started with -restore (and the same platform,
// steps, seed, sink-epoch, and admit-every) resumes the fleet
// bit-exactly, continuing every tenant's telemetry stream where the
// drained run cut it. If the snapshot drain or the write fails, fleetd
// still stops but exits with status 1, so a supervisor never mistakes
// lost state for a clean stop. POST /v1/tenants/{id}/snapshot captures
// a single tenant the same way without stopping the fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/fleetd"
)

func main() {
	var (
		addr         = flag.String("addr", ":8344", "listen address")
		platformName = flag.String("platform", "glucosym", "platform: glucosym or t1ds2013")
		scenarios    = flag.Int("scenarios", 0, "limit the scenario table to the first M entries (0 = full 882 matrix)")
		maxSessions  = flag.Int("max-sessions", 256, "fleet-wide live session capacity")
		parallel     = flag.Int("parallel", 0, "worker shards (0 = NumCPU)")
		steps        = flag.Int("steps", 288, "control cycles per session replica")
		seed         = flag.Int64("seed", 1, "master seed for per-session RNG streams")
		sinkEpoch    = flag.Int("sink-epoch", 8, "merge and deliver telemetry every k lock-step rounds")
		admitEvery   = flag.Int("admit-every", 0, "admission-gate period in rounds (0 = fleet default)")
		token        = flag.String("token", "", "require this bearer token on /v1/ endpoints (empty = no auth)")
		alertFloor   = flag.Float64("alert-floor", math.NaN(), "record per-tenant alerts when a robustness margin falls below this floor (NaN = off)")
		alertPct     = flag.Float64("alert-pct", math.NaN(), "record per-tenant alerts below this adaptive quantile of each tenant's own margin distribution, in (0,1) (NaN = off)")
		streamBuffer = flag.Int("stream-buffer", 0, "per-subscriber telemetry buffer in events (0 = default 256)")
		drainWait    = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget after SIGTERM")
		snapshotFile = flag.String("snapshot-file", "", "on SIGTERM, drain the fleet at an epoch-aligned gate and write the control-plane snapshot here instead of discarding state")
		restoreFile  = flag.String("restore", "", "seed the server from a control-plane snapshot written by -snapshot-file (requires the same platform/steps/seed/sink-epoch/admit-every)")
	)
	flag.Parse()

	platform, err := experiment.PlatformByName(*platformName)
	if err != nil {
		fail(err)
	}
	table := fault.CampaignPrograms(nil)
	if *scenarios > 0 && *scenarios < len(table) {
		table = table[:*scenarios]
	}
	cfg := fleetd.Config{
		Platform:     fleet.Platform(platform),
		Scenarios:    table,
		MaxSessions:  *maxSessions,
		Parallel:     *parallel,
		Steps:        *steps,
		Seed:         *seed,
		SinkEpoch:    *sinkEpoch,
		AdmitEvery:   *admitEvery,
		Token:        *token,
		AlertFloor:   *alertFloor,
		AlertPct:     *alertPct,
		StreamBuffer: *streamBuffer,
	}
	if *restoreFile != "" {
		data, err := os.ReadFile(*restoreFile)
		if err != nil {
			fail(err)
		}
		snap, err := fleetd.DecodeSnapshot(data)
		if err != nil {
			fail(err)
		}
		cfg.Restore = snap
		fmt.Fprintf(os.Stderr, "fleetd: restoring %d sessions across %d tenants from %s\n",
			len(snap.Fleet.Sessions), len(snap.Tenants), *restoreFile)
	}
	srv, err := fleetd.New(cfg)
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Start(context.Background()); err != nil {
		fail(err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	httpErr := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "fleetd: serving %s on %s (%d scenarios, capacity %d)\n",
			*platformName, *addr, len(table), *maxSessions)
		httpErr <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-httpErr:
		fail(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "fleetd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Order matters: ending the fleet first closes telemetry streams,
	// so Shutdown's wait for in-flight requests can complete.
	snapshotLost := false
	if *snapshotFile != "" {
		snap, err := srv.DrainToSnapshot(drainCtx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetd: snapshot drain: %v\n", err)
			snapshotLost = true
		} else if err := writeSnapshot(*snapshotFile, snap.Encode()); err != nil {
			fmt.Fprintf(os.Stderr, "fleetd: snapshot write: %v\n", err)
			snapshotLost = true
		} else {
			fmt.Fprintf(os.Stderr, "fleetd: snapshot: %d sessions across %d tenants -> %s\n",
				len(snap.Fleet.Sessions), len(snap.Tenants), *snapshotFile)
		}
	} else if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "fleetd: shutdown: %v\n", err)
	}
	if snapshotLost {
		fail(fmt.Errorf("no snapshot written to %s; the fleet state is lost", *snapshotFile))
	}
	fmt.Fprintln(os.Stderr, "fleetd: stopped")
}

// writeSnapshot lands the sealed snapshot atomically: a crash mid-write
// must never leave a truncated envelope where the next -restore expects
// a valid one. The temp file is synced before the rename, so the rename
// can never publish a name whose data has not reached the disk.
func writeSnapshot(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fleetd:", err)
	os.Exit(1)
}
