// Package fleetd is the fleet control plane: it exposes a continuously
// running admission-controlled fleet (internal/fleet) as a multi-tenant
// HTTP service. Tenants declare desired state — a set of cohort
// patients crossed with fault scenarios, plus mitigation config — and
// a reconcile loop diffs that declaration against the fleet's live slot
// set, admitting missing sessions and evicting surplus ones at the
// fleet's deterministic admission gates. Every session runs the paper's
// context-aware monitor (CAWOT over the Table I rules), evaluated for
// all of a shard's sessions at once by the shard-batched monitor.
//
// # Architecture
//
//	PUT /v1/tenants/{id} ──► registry (desired state, generation counter)
//	                              │ change ping
//	                              ▼
//	                        reconciler ──► fleet.Admissions ──► gates
//	                              ▲                               │
//	                              └──── Live()/PendingOps() ◄─────┘
//	fleet sinks ──► fanout (per-tenant streams) ──► GET .../telemetry
//	           └──► alertTable (per-tenant HistSink) ──► GET .../alerts
//
// The server owns one fleet run for its lifetime. The reconciler is
// level-triggered and idempotent: every pass recomputes the full diff
// from the registry and the admission controller's live view, and only
// issues operations when no previously issued batch is still pending,
// so convergence never depends on delivery of any individual change
// event. Capacity is admission-controlled at the API: a PUT whose
// fleet-wide desired total would exceed MaxSessions is rejected with
// 409 before the reconciler ever sees it.
//
// # Determinism
//
// The reconcile core inherits the fleet's determinism contract: diffs
// iterate tenants in sorted order and live slots in slot order, so a
// fixed sequence of registry states yields a fixed sequence of
// admission operations, and the fleet's per-gate protocol makes the
// resulting per-tenant telemetry streams byte-identical at any
// Parallel (see internal/fleet: admission gates). The HTTP edge is
// inherently wall-clock scheduled; the few nondeterministic constructs
// there carry reasoned //fleetvet:nondeterministic waivers.
//
// Telemetry streaming is strictly non-blocking: inside the fleet's
// epoch barrier the fan-out sink only copies each event into every
// matching subscriber's bounded queue, dropping (and counting) for slow
// consumers so one stalled client can never stall the fleet's epoch
// merges or other tenants' streams. Each subscriber's handler encodes
// its backlog off the barrier and flushes once per batch.
//
//fleetvet:deterministic
package fleetd
