// Package stl implements bounded-time Signal Temporal Logic over
// sampled multi-variable traces: the formula AST, boolean satisfaction,
// the standard quantitative (robustness) semantics used by the paper's
// threshold-learning step, a text parser, and a shard-batched online
// evaluation engine for past-only formulas.
//
// Time bounds are expressed in minutes and converted to sample indices
// through the trace's sampling period, so the same formula evaluates on
// traces of any uniform rate, and the streaming compiler delegates to
// the same Bounds conversion the offline evaluator uses, so window
// edges can never disagree between paths.
//
// # Evaluation paths and their invariants
//
// The package maintains two evaluation paths that must agree exactly:
//
//   - Offline: Formula.Sat / Formula.Robustness over a recorded Trace —
//     the reference semantics.
//   - Batched (BatchStreamGroup): past-only formulas compile into one
//     hash-consed DAG, keyed on each node's operator, children and
//     constants (subformulas share a node exactly when their parser
//     renderings are equal, TestInternMatchesString), whose stateful
//     nodes hold per-lane operator cores (delay lines, Lemire
//     window-extremum deques, clamp-merge Since deques) for a whole
//     shard of independent sessions (lanes), all advanced by one
//     struct-of-arrays push. Each push is O(1) amortized per lane with
//     O(sum of window lengths) retained state, independent of session
//     length. Every lane's verdict and robustness are exactly equal
//     (==) to the offline semantics of that lane's samples since its
//     last reset — not approximately: the engine reorders min/max folds
//     but never changes operands (TestPropStreamingMatchesOffline,
//     TestBatchStreamGroupMatchesPerLane). The sharing invariant: a
//     shared stateful node advances exactly once per push no matter how
//     many formulas contain it, enforced by a per-push sequence memo;
//     StateSamples counts deduplicated state. Lanes reset
//     independently (ResetLane), which is what lets a fleet shard
//     recycle a lane for a fresh session mid-run.
//
// Per-session evaluation is one lane: OnlineMonitor is a one-lane group
// behind a map-keyed Push.
//
//fleetvet:deterministic
package stl
