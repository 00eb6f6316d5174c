// Package fleet is the streaming concurrent simulation engine: it runs
// N patients x M scenarios as long-running closed-loop sessions instead
// of one-shot batch jobs. The batch campaign of internal/experiment is
// the run-to-completion special case; continuous mode keeps every
// session slot busy forever, which is the serving shape the roadmap's
// million-session target grows from.
//
// # Architecture
//
// Sessions are dealt round-robin to Parallel worker shards; each shard
// owns its sessions exclusively and steps its live window in lock-step
// rounds. Workers share only atomic counters and the epoch and
// admission barriers, so the engine is race-free by construction. Each
// session is driven by a closedloop.Stepper — the single implementation
// of the simulation loop — with a per-session deterministic RNG and a
// pooled trace buffer. A fleet has one monitor path: each shard builds
// one batch monitor (Config.NewBatchMonitor) and every session is a
// lane of it, so a per-session monitor is the one-lane case of the
// same kernel. Its parameters are the fleet's; a monitor with
// per-patient parameters runs one fleet per patient.
//
// # Invariants
//
// Determinism: a session's entire evolution is a function of (master
// seed, slot, patient, scenario, replica) — never of goroutine
// scheduling — so traces, margins, and histograms are byte-identical at
// any parallelism level, with sensor noise and margin-scaled mitigation
// in the loop (TestFleetDeterministicAcrossParallelism).
//
// Batched ≡ per-session, bit-identically: the lock-step rounds let a
// shard advance all its sessions' physiology in one struct-of-arrays
// RK4 step (Platform.NewBatchPatient), evaluate all their monitor
// decisions in one call (Config.NewBatchMonitor), and push all their
// hazard telemetry through one struct-of-arrays rule stream
// (Config.Telemetry's default). Each batched path produces exactly what
// its per-session reference produces — not statistically, bit-for-bit:
// the scalar stepping a Platform without NewBatchPatient runs
// (TestFleetBatchedSteppingMatchesPerSession), every session run alone
// through closedloop with a one-lane monitor, the reference the tests
// keep (TestFleetBatchedMonitorMatchesPerSession,
// TestFleetFromMonitorBatchedCAWT), and a retained trace replayed
// through a fresh one-lane scs.BatchStreamSet
// (TestFleetBatchedTelemetryMatchesPerSession) — so batching is purely
// a throughput decision.
//
// One evaluation per cycle: with TelemetryConfig.FromMonitor, telemetry
// reads the shard monitor's own streaming verdict at the session's
// lane, so alarm, Algorithm 1 mitigation, and telemetry never evaluate
// the rules twice for the same cycle.
//
// Event order is canonical everywhere: events leave the engine only
// through Config.Sinks, and per-worker buffers merge in canonical
// session-coordinate order, so sink output is byte-identical across
// parallelism levels (the sink determinism tests in sink_test.go).
// The merge happens incrementally at epoch barriers every
// Config.SinkEpoch lock-step rounds: finite runs stream the stable
// prefix of the canonical order (concatenated epoch merges are
// byte-identical to the run-end merge at any (Parallel, SinkEpoch) —
// TestShardedSinkEpochMergeMatchesRunEnd) and hold back only events of
// sessions still in flight, and continuous runs drain every closed
// epoch whole with memory bounded by one epoch window (the continuous
// soak test in shard_sink_test.go). See shard_sink.go.
//
// Cancellation loses only the in-flight tail: delivery skips the open
// — un-barriered — epoch of a cancelled run, delivering only epochs
// that closed before shutdown (plus any canonical-order holdback from
// closed epochs), and never replays the cancelled tail as if the run
// had completed (TestShardedSinkCancelSkipsOpenEpoch); a durable record
// of the final instants before shutdown requires a clean (finite)
// completion.
//
// Telemetry is never silently dropped while a run is live: sinks are
// fed inside the epoch barrier (a slow sink slows the fleet rather than
// losing events), a failing sink is detached and its error surfaces
// from Run after simulation completes, and LogSink rotation retires
// whole files without ever splitting or dropping a record.
//
// # Runtime admission
//
// Config.Admissions turns session arrival and departure into a
// first-class runtime operation on a continuous fleet: admission gates
// fire every Config.AdmitEvery lock-step rounds, all shards rendezvous
// on the shared round counter, and the queued operations — AdmitSpec
// admissions, slot or group evictions — apply identically for every
// shard before the barrier releases. Gates key on the round clock, not
// wall time, so the fleet-shape history joins the seed as a
// deterministic input: for a fixed admission schedule the sink
// stream is byte-identical at any Parallel
// (TestFleetAdmissionStreamDeterministicAcrossParallelism). Slots are
// never reused, acceptance depends only on the fleet-wide live count
// against Config.MaxSessions (every shard sizes its lane banks to the
// capacity), evicted sessions emit a terminal EventSessionEvict and
// are never counted completed, and an empty fleet parks at the gate
// until the controller wakes it. internal/fleetd builds the
// multi-tenant HTTP control plane on this surface; see admission.go
// and DESIGN.md "Runtime admission".
//
// # Snapshot and resume
//
// Because a session's evolution is a pure function of its coordinates
// and the round clock, a live fleet can be serialized and resumed
// bit-exactly. Admissions.Drain stops the fleet at an admission gate
// that is also a sink-epoch boundary — where the per-worker sink
// buffers are provably empty — and captures every live session's
// component state (patient, sensor, controller, fault, mitigation,
// streaming STL nodes, monitor, RNG position) into a sealed
// FleetSnapshot; Drain at a misaligned gate fails with
// ErrDrainMisaligned and the fleet keeps running. Config.Restore
// rebuilds the fleet from a snapshot slot-for-slot, and the resumed
// sink stream continues byte-identically with a run that never
// stopped, at any Parallel (TestFleetSnapshotResumeGoldenDifferential).
// SnapshotGroup captures one group's sessions the same way without
// stopping the fleet, and AdmitSpec.Restore migrates a captured
// session onto a new slot. The byte format, its versioning rules, and
// the checked-in golden fixture guarding them live in
// internal/snapshot and DESIGN.md "Snapshot format & versioning".
//
//fleetvet:deterministic
package fleet
