// Package optimize implements the bound-constrained limited-memory
// quasi-Newton optimizer the paper uses to learn STL thresholds
// (Section III-C2): L-BFGS-B style, with the inverse Hessian estimated by
// two-loop recursion rather than formed explicitly, box constraints
// handled by gradient projection, and a backtracking Armijo line search
// over projected iterates.
//
// This is the projected-LBFGS variant — adequate for the low-dimensional
// threshold problems here; the deviation from the full
// Byrd-Lu-Nocedal-Zhu subspace algorithm is documented in DESIGN.md.
//
//fleetvet:deterministic
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// Objective evaluates f(x). Gradient fills grad with ∇f(x); it may be nil
// in Problem, in which case central finite differences are used.
type Objective func(x []float64) float64

// Gradient fills grad with ∇f(x).
type Gradient func(x, grad []float64)

// Problem describes a box-constrained minimization.
type Problem struct {
	F     Objective
	Grad  Gradient  // optional; nil selects numerical differentiation
	Lower []float64 // optional; nil means -inf for every coordinate
	Upper []float64 // optional; nil means +inf
}

// Options tune the solver. The zero value selects sensible defaults.
type Options struct {
	Memory        int     // history pairs for two-loop recursion (default 10)
	MaxIterations int     // default 200
	GradTolerance float64 // stop when the projected gradient inf-norm falls below (default 1e-8)
	FTolerance    float64 // stop on relative objective change below (default 1e-12)
	StepTolerance float64 // line-search floor (default 1e-14)
}

func (o Options) withDefaults() Options {
	if o.Memory <= 0 {
		o.Memory = 10
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	if o.GradTolerance <= 0 {
		o.GradTolerance = 1e-8
	}
	if o.FTolerance <= 0 {
		o.FTolerance = 1e-12
	}
	if o.StepTolerance <= 0 {
		o.StepTolerance = 1e-14
	}
	return o
}

// Result reports the outcome of a minimization.
type Result struct {
	X          []float64
	F          float64
	Iterations int
	Evals      int
	Converged  bool
	// Status describes which criterion stopped the solver.
	Status string
}

// ErrInvalidProblem reports a structurally invalid problem definition.
var ErrInvalidProblem = errors.New("optimize: invalid problem")

// Minimize runs projected L-BFGS from x0.
func Minimize(p Problem, x0 []float64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	n := len(x0)
	if n == 0 {
		return Result{}, fmt.Errorf("%w: empty start point", ErrInvalidProblem)
	}
	if p.F == nil {
		return Result{}, fmt.Errorf("%w: nil objective", ErrInvalidProblem)
	}
	if p.Lower != nil && len(p.Lower) != n {
		return Result{}, fmt.Errorf("%w: lower bounds have %d entries, want %d", ErrInvalidProblem, len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return Result{}, fmt.Errorf("%w: upper bounds have %d entries, want %d", ErrInvalidProblem, len(p.Upper), n)
	}
	for i := 0; i < n; i++ {
		if lo, hi := p.lower(i), p.upper(i); lo > hi {
			return Result{}, fmt.Errorf("%w: lower[%d]=%v > upper[%d]=%v", ErrInvalidProblem, i, lo, i, hi)
		}
	}

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return p.F(x)
	}
	grad := func(x, g []float64) {
		if p.Grad != nil {
			p.Grad(x, g)
			return
		}
		numGrad(eval, x, g)
	}

	x := make([]float64, n)
	copy(x, x0)
	p.project(x)

	g := make([]float64, n)
	fx := eval(x)
	grad(x, g)

	// Limited-memory history.
	type pair struct {
		s, y []float64
		rho  float64
	}
	var hist []pair

	dir := make([]float64, n)
	xNew := make([]float64, n)
	gNew := make([]float64, n)
	alphaBuf := make([]float64, opts.Memory)

	res := Result{X: x, F: fx}
	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations = iter
		// Convergence on projected gradient.
		if pg := p.projGradNorm(x, g); pg < opts.GradTolerance {
			res.Converged = true
			res.Status = "projected gradient below tolerance"
			break
		}

		// Two-loop recursion for the search direction d = -H·g.
		copy(dir, g)
		m := len(hist)
		for i := m - 1; i >= 0; i-- {
			h := hist[i]
			alphaBuf[i] = h.rho * dot(h.s, dir)
			axpy(-alphaBuf[i], h.y, dir)
		}
		if m > 0 {
			last := hist[m-1]
			gamma := dot(last.s, last.y) / dot(last.y, last.y)
			scale(gamma, dir)
		}
		for i := 0; i < m; i++ {
			h := hist[i]
			beta := h.rho * dot(h.y, dir)
			axpy(alphaBuf[i]-beta, h.s, dir)
		}
		neg(dir)

		// Descent check; fall back to steepest descent when the
		// curvature history misleads.
		if dot(dir, g) >= 0 {
			for i := range dir {
				dir[i] = -g[i]
			}
		}

		// Weak-Wolfe line search (Lewis-Overton bisection): Armijo for
		// sufficient decrease, plus a curvature condition that
		// guarantees s·y > 0 so the quasi-Newton update stays well
		// posed. Iterates are projected into the box after stepping;
		// when the projection is active the curvature condition is
		// waived (bounds truncate the line).
		const (
			c1 = 1e-4
			c2 = 0.9
		)
		g0d := dot(g, dir)
		step, lo, hi := 1.0, 0.0, math.Inf(1)
		var fNew float64
		ok := false
		for ls := 0; ls < 60; ls++ {
			projected := false
			for i := range xNew {
				xNew[i] = x[i] + step*dir[i]
			}
			p.project(xNew)
			for i := range xNew {
				if xNew[i] != x[i]+step*dir[i] {
					projected = true
					break
				}
			}
			fNew = eval(xNew)
			var dg float64
			for i := range xNew {
				dg += g[i] * (xNew[i] - x[i])
			}
			switch {
			case fNew > fx+c1*dg || (dg >= 0 && fNew >= fx):
				// Insufficient decrease: shrink.
				hi = step
				step = (lo + hi) / 2
			default:
				grad(xNew, gNew)
				if !projected && dot(gNew, dir) < c2*g0d {
					// Curvature too negative: lengthen.
					lo = step
					if math.IsInf(hi, 1) {
						step *= 2
					} else {
						step = (lo + hi) / 2
					}
					continue
				}
				ok = true
			}
			if ok || step < opts.StepTolerance {
				break
			}
		}
		if !ok {
			res.Converged = true
			res.Status = "line search could not improve (stationary under bounds)"
			break
		}

		// Update history with the curvature pair.
		s := make([]float64, n)
		y := make([]float64, n)
		for i := range s {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		// Keep the pair only under a relative curvature condition:
		// an absolute floor would freeze the history once steps become
		// small, stalling convergence with a stale Hessian model.
		if sy := dot(s, y); sy > 1e-10*math.Sqrt(dot(s, s))*math.Sqrt(dot(y, y)) {
			hist = append(hist, pair{s: s, y: y, rho: 1 / sy})
			if len(hist) > opts.Memory {
				hist = hist[1:]
			}
		}

		fPrev := fx
		copy(x, xNew)
		copy(g, gNew)
		fx = fNew

		if math.Abs(fPrev-fx) <= opts.FTolerance*(1+math.Abs(fx)) {
			res.Iterations = iter + 1
			res.Converged = true
			res.Status = "objective change below tolerance"
			break
		}
	}
	if !res.Converged {
		res.Status = "iteration limit reached"
	}
	res.X = x
	res.F = fx
	res.Evals = evals
	return res, nil
}

func (p *Problem) lower(i int) float64 {
	if p.Lower == nil {
		return math.Inf(-1)
	}
	return p.Lower[i]
}

func (p *Problem) upper(i int) float64 {
	if p.Upper == nil {
		return math.Inf(1)
	}
	return p.Upper[i]
}

// project clamps x into the box.
func (p *Problem) project(x []float64) {
	for i := range x {
		if lo := p.lower(i); x[i] < lo {
			x[i] = lo
		}
		if hi := p.upper(i); x[i] > hi {
			x[i] = hi
		}
	}
}

// projGradNorm is the inf-norm of the projected gradient: components
// pushing against an active bound are ignored.
func (p *Problem) projGradNorm(x, g []float64) float64 {
	var norm float64
	for i := range x {
		gi := g[i]
		if x[i] <= p.lower(i) && gi > 0 {
			gi = 0
		}
		if x[i] >= p.upper(i) && gi < 0 {
			gi = 0
		}
		norm = math.Max(norm, math.Abs(gi))
	}
	return norm
}

// numGrad fills g with a central-difference gradient estimate.
func numGrad(f func([]float64) float64, x, g []float64) {
	const eps = 1e-6
	for i := range x {
		h := eps * math.Max(1, math.Abs(x[i]))
		orig := x[i]
		x[i] = orig + h
		fp := f(x)
		x[i] = orig - h
		fm := f(x)
		x[i] = orig
		g[i] = (fp - fm) / (2 * h)
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

func neg(x []float64) {
	for i := range x {
		x[i] = -x[i]
	}
}
