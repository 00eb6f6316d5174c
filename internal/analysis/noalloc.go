package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// allocPkgs are packages whose exported functions allocate by
// construction (formatting buffers, error values); any call into them
// from a //fleetvet:noalloc function is a finding.
var allocPkgs = map[string]bool{
	"fmt":    true,
	"errors": true,
}

// NewNoAlloc returns the hot-path allocation pass: inside functions
// marked //fleetvet:noalloc it flags allocation-prone constructs —
// fmt/errors calls, map and slice composite literals, make/new, append
// (growth unless capacity was preallocated, which is what the waiver
// states), function literals (closure capture), taking the address of a
// composite literal, and boxing a concrete value into an interface.
// The static check is the compile-time twin of the AllocsPerRun == 0
// tests, and like them it covers the success path: constructs inside
// the error result of a return statement are exempt (the 0-alloc
// contract is steady-state, and error construction is the cold exit).
// A remaining finding is suppressed only by a //fleetvet:alloc waiver
// with a reason, scoped to one statement line.
func NewNoAlloc() *Analyzer {
	a := &Analyzer{
		Name: "noalloc",
		Doc:  "flag allocation-prone constructs inside //fleetvet:noalloc functions",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ws := collectWaivers(pass, f, "alloc")
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(pass.Fset, fd.Doc, "noalloc") {
					continue
				}
				w := &allocWalker{pass: pass, ws: ws, sig: funcSignature(pass, fd)}
				w.walk(fd.Body)
			}
		}
		return nil
	}
	return a
}

// funcSignature resolves a declared function's type-checked signature.
func funcSignature(pass *Pass, fd *ast.FuncDecl) *types.Signature {
	if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		return obj.Type().(*types.Signature)
	}
	return nil
}

// allocWalker traverses one noalloc function body reporting
// allocation-prone constructs.
type allocWalker struct {
	pass *Pass
	ws   waiverSet
	sig  *types.Signature
}

// walk inspects one subtree.
func (w *allocWalker) walk(n ast.Node) {
	ast.Inspect(n, w.visit)
}

// reportAt files a finding at pos unless a waiver covers its line.
func (w *allocWalker) reportAt(pos token.Pos, format string, args ...any) {
	if w.ws.waived(w.pass.Fset, pos) {
		return
	}
	w.pass.Reportf(pos, format, args...)
}

// visit handles one node; returning false prunes the subtree.
func (w *allocWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		// The final result of an error-returning function is the cold
		// exit: error construction there (fmt.Errorf and friends) is
		// exempt, mirroring what the AllocsPerRun tests measure. All
		// other result expressions are checked normally.
		if w.sig != nil && len(n.Results) > 0 && resultsEndInError(w.sig) && len(n.Results) == w.sig.Results().Len() {
			for _, res := range n.Results[:len(n.Results)-1] {
				w.walk(res)
			}
			return false
		}
	case *ast.FuncLit:
		w.reportAt(n.Pos(), "function literal allocates its closure")
		return false // the literal's body runs elsewhere; the capture is the cost here
	case *ast.CompositeLit:
		t := w.pass.TypesInfo.TypeOf(n)
		if t != nil {
			switch t.Underlying().(type) {
			case *types.Map:
				w.reportAt(n.Pos(), "map literal allocates")
			case *types.Slice:
				w.reportAt(n.Pos(), "slice literal allocates its backing array")
			}
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				w.reportAt(n.Pos(), "address of composite literal escapes to the heap")
			}
		}
	case *ast.CallExpr:
		w.visitCall(n)
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				w.checkBox(n.Rhs[i], w.pass.TypesInfo.TypeOf(n.Lhs[i]))
			}
		}
	}
	return true
}

// visitCall classifies one call expression: allocating builtins, calls
// into allocating packages, and interface boxing of arguments.
func (w *allocWalker) visitCall(call *ast.CallExpr) {
	// Type conversions: only interface targets box.
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			w.checkBox(call.Args[0], tv.Type)
		}
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := w.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				w.reportAt(call.Pos(), "append may grow its backing array: preallocate capacity (and waive) or restructure")
			case "make":
				w.reportAt(call.Pos(), "make allocates")
			case "new":
				w.reportAt(call.Pos(), "new allocates")
			}
			return
		}
	case *ast.SelectorExpr:
		if fn, ok := w.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && allocPkgs[fn.Pkg().Path()] {
			w.reportAt(call.Pos(), "call to %s.%s allocates", fn.Pkg().Name(), fn.Name())
			return // the call is the finding; boxing of its arguments is implied
		}
	}
	// Interface boxing of arguments to ordinary calls.
	t := w.pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a ...spread passes the slice through unboxed
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		w.checkBox(arg, pt)
	}
}

// checkBox reports a concrete value converted to an interface type: the
// conversion boxes the value, which escapes to the heap unless the
// compiler proves otherwise — not a bet a noalloc path takes.
func (w *allocWalker) checkBox(expr ast.Expr, target types.Type) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	at := w.pass.TypesInfo.TypeOf(expr)
	if at == nil {
		return
	}
	if _, isIface := at.Underlying().(*types.Interface); isIface {
		return // interface-to-interface carries the existing box
	}
	if basic, ok := at.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return
	}
	w.reportAt(expr.Pos(), "%s value boxes into interface %s",
		types.TypeString(at, types.RelativeTo(w.pass.Pkg)),
		types.TypeString(target, types.RelativeTo(w.pass.Pkg)))
}

// resultsEndInError reports whether a signature's final result is the
// error interface.
func resultsEndInError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}
