// Package scs encodes the paper's Safety Context Specification: the
// twelve Table I rules that describe in which multi-dimensional system
// context  µ(x) = (BG, BG', IOB, IOB')  each control action u1..u4 is
// an Unsafe Control Action leading to hazard H1 or H2.
//
// Each rule carries one learnable boundary threshold β (on IOB for
// rules 1-9, 11, 12; on BG for rule 10) that the stllearn package
// refines from fault-injected traces. Rules render to STL formulas of
// the Eq. 1 shape
//
//	G[t0,te]( context(µ(x)) ∧ learnable ⇒ ¬u )
//
// and are evaluated online against per-cycle states.
//
// # Streaming evaluation and its invariants
//
// BatchStreamSet renders a rule set through internal/stl's batched
// streaming engine across a whole fleet shard of session lanes in one
// struct-of-arrays push; a one-lane set is the per-session evaluator.
// Shared context atoms and windows evaluate once per cycle no matter
// how many rules contain them, and the structurally fixed consequent
// (the u == action equality) folds inline per lane, so a single push
// yields each lane's satisfaction, minimum STL body robustness, signed
// rule margin with arg-min attribution, and predicted hazard class —
// the StreamVerdict that the streaming CAWT monitor, Algorithm 1 margin
// scaling, and fleet telemetry all read from (the one-evaluation
// invariant: nothing evaluates the rules twice for the same cycle).
// State is O(window), never session length.
//
// The lane-independence invariant: a lane's verdicts and fired-rule
// sets — margins, arg-min rules, and hazards included — do not depend
// on the set's width or on which other lanes share a push, enforced by
// TestBatchStreamSetMatchesPerSession (one many-lane set against one
// one-lane set per session) over randomized boundary-hugging states,
// staggered lane resets, and randomized thresholds. Rule semantics
// themselves are pinned against the eager Rule.Violated and STL
// renderings (TestStreamSetMatchesRuleSemantics).
//
//fleetvet:deterministic
package scs
