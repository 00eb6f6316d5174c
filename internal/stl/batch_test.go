package stl

import (
	"math"
	"math/rand"
	"testing"
)

// TestBatchStreamGroupMatchesPerLane is the differential correctness
// contract of the batched engine: randomized past-only formulas pushed
// through one BatchStreamGroup across many lanes — with randomized
// active-lane subsets per push and staggered lane resets — must produce
// satisfaction and robustness exactly equal (==) to the offline
// Sat/Robustness of each lane's samples since its last reset.
func TestBatchStreamGroupMatchesPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 250; trial++ {
		nf := 1 + rng.Intn(4)
		formulas := make([]Formula, nf)
		for i := range formulas {
			formulas[i] = randPastFormula(rng, 1+rng.Intn(3))
		}
		width := 1 + rng.Intn(8)

		batch, err := NewBatchStreamGroup(1, width)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range formulas {
			bi, err := batch.Add(f)
			if err != nil {
				t.Fatalf("trial %d: batch add %s: %v", trial, f, err)
			}
			if bi != i {
				t.Fatalf("trial %d: batch index %d, want %d", trial, bi, i)
			}
		}
		vars := batch.Vars()
		// refs[lane] records the lane's samples since its last reset: the
		// offline oracle's input.
		refs := make([]*Trace, width)
		newRef := func() *Trace {
			tr, err := NewTrace(1)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		for lane := range refs {
			refs[lane] = newRef()
		}

		steps := 20 + rng.Intn(40)
		lanes := make([]int, 0, width)
		vals := make([]float64, 0, len(vars)*width)
		sample := make(map[string]float64, len(vars))
		for s := 0; s < steps; s++ {
			// Occasionally recycle a lane mid-run, as a fleet shard does
			// when a session completes and its lane restarts.
			if rng.Intn(8) == 0 {
				lane := rng.Intn(width)
				batch.ResetLane(lane)
				refs[lane] = newRef()
			}
			// A random non-empty subset of lanes advances this push.
			lanes = lanes[:0]
			for lane := 0; lane < width; lane++ {
				if rng.Intn(4) > 0 {
					lanes = append(lanes, lane)
				}
			}
			if len(lanes) == 0 {
				lanes = append(lanes, rng.Intn(width))
			}
			n := len(lanes)
			vals = vals[:len(vars)*n]
			for k := range lanes {
				for v := range vars {
					vals[v*n+k] = -10 + 20*rng.Float64()
				}
			}
			if err := batch.PushLanes(lanes, vals); err != nil {
				t.Fatalf("trial %d step %d: batch push: %v", trial, s, err)
			}
			for k, lane := range lanes {
				for v, name := range vars {
					sample[name] = vals[v*n+k]
				}
				refs[lane].Append(sample)
				if got := batch.LaneLen(lane); got != refs[lane].Len() {
					t.Fatalf("trial %d step %d: lane %d holds %d samples, oracle %d", trial, s, lane, got, refs[lane].Len())
				}
			}
			for i, f := range formulas {
				sats, robs := batch.Sats(i), batch.Robs(i)
				for k, lane := range lanes {
					at := refs[lane].Len() - 1
					wantSat, err := f.Sat(refs[lane], at)
					if err != nil {
						t.Fatal(err)
					}
					wantRob, err := f.Robustness(refs[lane], at)
					if err != nil {
						t.Fatal(err)
					}
					if sats[k] != wantSat || robs[k] != wantRob {
						t.Fatalf("trial %d step %d formula %d (%s) lane %d: batched (%v, %v), offline (%v, %v)",
							trial, s, i, formulas[i], lane, sats[k], robs[k], wantSat, wantRob)
					}
				}
			}
		}
	}
}

// TestBatchStreamGroupSharesState: hash-consing must dedup shared
// stateful subformulas across formulas exactly like the per-session
// group — total state equals one lane-vector of the shared window, not
// one per containing formula.
func TestBatchStreamGroupSharesState(t *testing.T) {
	shared := &Once{Bounds: Bounds{A: 0, B: 10}, Child: &Atom{Var: "x", Op: OpGT, Threshold: 1}}
	f1 := NewAnd(shared, &Atom{Var: "y", Op: OpLT, Threshold: 0})
	f2 := NewOr(shared, &Atom{Var: "y", Op: OpGT, Threshold: 5})

	const width = 4
	g, err := NewBatchStreamGroup(1, width)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Formula{f1, f2} {
		if _, err := g.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	solo, err := NewBatchStreamGroup(1, width)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Add(f1); err != nil {
		t.Fatal(err)
	}

	lanes := []int{0, 1, 2, 3}
	vals := make([]float64, 2*width)
	rng := rand.New(rand.NewSource(7))
	for s := 0; s < 50; s++ {
		for i := range vals {
			vals[i] = -5 + 10*rng.Float64()
		}
		if err := g.PushLanes(lanes, vals); err != nil {
			t.Fatal(err)
		}
		if err := solo.PushLanes(lanes, vals); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := g.StateSamples(), solo.StateSamples(); got != want {
		t.Fatalf("shared-window group holds %d state samples, want %d (the single shared window)", got, want)
	}
}

// TestBatchStreamGroupBoundedStateZeroAllocs: steady-state pushes must
// not allocate, and retained state must stay O(width x window) however
// long the lanes run.
func TestBatchStreamGroupBoundedStateZeroAllocs(t *testing.T) {
	f := MustParse("(H[0,30] (x > 0)) and ((x > 1) S[0,60] (y < 0))")
	const width = 16
	g, err := NewBatchStreamGroup(1, width)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(f); err != nil {
		t.Fatal(err)
	}
	lanes := make([]int, width)
	for i := range lanes {
		lanes[i] = i
	}
	vals := make([]float64, 2*width)
	rng := rand.New(rand.NewSource(8))
	push := func() {
		for i := range vals {
			vals[i] = -5 + 10*rng.Float64()
		}
		if err := g.PushLanes(lanes, vals); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		push()
	}
	if allocs := testing.AllocsPerRun(200, push); allocs != 0 {
		t.Fatalf("steady-state batched push allocates %v times", allocs)
	}
	for i := 0; i < 2000; i++ {
		push()
	}
	// Deque occupancy is data-dependent within the window bound, so the
	// invariant is a cap, not exact equality: each lane holds at most
	// O(sum of window lengths) entries — 31+31 for the Historically
	// cores, 61+61 for the Since candidate deques — no matter how long
	// the lanes run.
	const perLaneCap = 31 + 31 + 61 + 61
	if got := g.StateSamples(); got > width*perLaneCap {
		t.Fatalf("state is not O(width x window): %d samples, cap %d", got, width*perLaneCap)
	}
}

// TestBatchStreamGroupValidation covers the construction and push error
// paths.
func TestBatchStreamGroupValidation(t *testing.T) {
	if _, err := NewBatchStreamGroup(0, 4); err == nil {
		t.Error("zero dt should be rejected")
	}
	if _, err := NewBatchStreamGroup(1, 0); err == nil {
		t.Error("zero width should be rejected")
	}
	g, err := NewBatchStreamGroup(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(nil); err == nil {
		t.Error("nil formula should be rejected")
	}
	future := MustParse("F[0,10] (x > 0)")
	if _, err := g.Add(future); err == nil {
		t.Error("future formula should be rejected")
	}
	if _, err := g.Add(MustParse("x > 0")); err != nil {
		t.Fatal(err)
	}
	if err := g.PushLanes(nil, nil); err == nil {
		t.Error("empty lane set should be rejected")
	}
	if err := g.PushLanes([]int{2}, []float64{1}); err == nil {
		t.Error("out-of-range lane should be rejected")
	}
	if err := g.PushLanes([]int{0}, []float64{1, 2}); err == nil {
		t.Error("wrong value-matrix size should be rejected")
	}
	if err := g.PushLanes([]int{0, 1}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(MustParse("y > 0")); err == nil {
		t.Error("adding to a running group should be rejected")
	}
}

// TestBatchStreamGroupRejectsDuplicateLanes: a duplicated lane ID in
// one push would double-advance that lane's operator state; it must be
// rejected before anything advances, and the group must stay usable.
func TestBatchStreamGroupRejectsDuplicateLanes(t *testing.T) {
	g, err := NewBatchStreamGroup(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(MustParse("H[0,5] (x > 0)")); err != nil {
		t.Fatal(err)
	}
	if err := g.PushLanes([]int{0, 1, 0}, make([]float64, 3)); err == nil {
		t.Fatal("duplicate lane accepted")
	}
	if g.Len() != 0 {
		t.Fatalf("rejected push advanced the group to %d", g.Len())
	}
	// The duplicate-check scratch must be clean: a valid push using the
	// same lanes succeeds afterwards.
	if err := g.PushLanes([]int{0, 1, 2}, make([]float64, 3)); err != nil {
		t.Fatalf("valid push after rejection: %v", err)
	}
}

// TestBatchFlatAndOneLaneMatchesWide: a fused conjunction runs a
// register loop on one-lane pushes and a lane-inner loop on wider ones.
// Both must give every lane the offline result, including values
// exactly at a threshold (where strict and non-strict atoms differ)
// and NaN (unsatisfied, NaN robustness).
func TestBatchFlatAndOneLaneMatchesWide(t *testing.T) {
	f := MustParse("x > 1 and y >= 2 and x <= 4 and y < 5")
	values := []float64{1, 2, 4, 5, 0, 3, math.NaN()}
	one, err := NewBatchStreamGroup(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewBatchStreamGroup(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*BatchStreamGroup{one, wide} {
		if _, err := g.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := NewTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range values {
		for _, y := range values {
			tr.Append(map[string]float64{"x": x, "y": y})
			wantSat, err := f.Sat(tr, tr.Len()-1)
			if err != nil {
				t.Fatal(err)
			}
			wantRob, err := f.Robustness(tr, tr.Len()-1)
			if err != nil {
				t.Fatal(err)
			}
			if err := one.PushLanes([]int{0}, []float64{x, y}); err != nil {
				t.Fatal(err)
			}
			// Lane 1 of the wide push carries the same sample.
			if err := wide.PushLanes([]int{0, 1, 2}, []float64{0, x, 9, 0, y, 9}); err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				name string
				sat  bool
				rob  float64
			}{
				{"one-lane", one.Sats(0)[0], one.Robs(0)[0]},
				{"wide", wide.Sats(0)[1], wide.Robs(0)[1]},
			} {
				sameRob := got.rob == wantRob || math.IsNaN(got.rob) && math.IsNaN(wantRob)
				if got.sat != wantSat || !sameRob {
					t.Fatalf("x=%v y=%v %s: (%v, %v), offline (%v, %v)", x, y, got.name, got.sat, got.rob, wantSat, wantRob)
				}
			}
		}
	}
}
