package analysis

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the time package functions that read the wall
// clock: any of them in a determinism-critical package makes a run
// unreproducible from its seed. Referencing the function as a value
// (e.g. storing time.Now as an injectable clock) counts — that is
// exactly how a hidden clock dependency enters a hot path.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// seededRandConstructors are the math/rand package-level functions that
// build an explicitly seeded generator rather than drawing from the
// process-wide source; these are the only package-level rand calls a
// deterministic package may make.
var seededRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
	"NewZipf":    true,
}

// NewDeterminism returns the determinism pass: inside packages marked
// //fleetvet:deterministic it flags unordered map iteration, wall-clock
// reads (time.Now/Since/Until), and draws from the process-global
// math/rand source — the three constructs that make a fault-injection
// run irreproducible from its seed. A finding is suppressed only by a
// //fleetvet:nondeterministic waiver with a reason, scoped to one
// statement line.
func NewDeterminism() *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "flag map-order, wall-clock, and global-rand nondeterminism in marked packages",
	}
	a.Run = func(pass *Pass) error {
		marked := packageMarked(pass.Fset, pass.Files, "deterministic")
		for _, f := range pass.Files {
			// Waivers are collected even in unmarked packages so a
			// malformed (reasonless) waiver is a finding anywhere.
			ws := collectWaivers(pass, f, "nondeterministic")
			if !marked {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					t := pass.TypesInfo.TypeOf(n.X)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); isMap && !ws.waived(pass.Fset, n.Pos()) {
						pass.Reportf(n.Pos(), "range over map %s: iteration order is nondeterministic", types.TypeString(t, types.RelativeTo(pass.Pkg)))
					}
				case *ast.SelectorExpr:
					fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil {
						return true
					}
					sig, ok := fn.Type().(*types.Signature)
					if !ok || sig.Recv() != nil {
						return true // methods (e.g. (*rand.Rand).Intn) are per-instance
					}
					switch fn.Pkg().Path() {
					case "time":
						if wallClockFuncs[fn.Name()] && !ws.waived(pass.Fset, n.Pos()) {
							pass.Reportf(n.Pos(), "time.%s reads the wall clock: nondeterministic across runs", fn.Name())
						}
					case "math/rand", "math/rand/v2":
						if !seededRandConstructors[fn.Name()] && !ws.waived(pass.Fset, n.Pos()) {
							pass.Reportf(n.Pos(), "%s.%s draws from the process-global source: use a per-session seeded generator", fn.Pkg().Name(), fn.Name())
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}
