package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// enumInfo records one //fleetvet:exhaustive enum: its declared
// enumerator constants in declaration order, minus sentinels. Members
// are identified by constant value, so a re-exported alias in another
// package (const Other = pkg.Member) is the same enumerator, and a
// case listing either name covers it.
type enumInfo struct {
	pkgPath string
	name    string
	members []enumMember
	byValue map[string]bool
}

// enumMember is one enumerator: its first-declared name (deps are
// analyzed before importers, so that is the defining package's name)
// and its exact constant value.
type enumMember struct {
	name  string
	value string
}

// key identifies the enum across packages.
func (e *enumInfo) key() string { return e.pkgPath + "." + e.name }

// NewExhaustive returns the enum-exhaustiveness pass: a type marked
// //fleetvet:exhaustive registers its package-level constants (minus
// //fleetvet:sentinel ones) as the enumerator set, and every switch
// statement over the type — in any vetted package — must list every
// enumerator in its cases. A default clause does not substitute: the
// point is that adding an enumerator breaks the build of every switch
// that has not decided what to do with it, which is the static twin of
// the runtime TestKindRankExhaustive guard. The pass carries its
// registry across packages, so the driver must analyze dependencies
// before their importers (go list -deps order).
func NewExhaustive() *Analyzer {
	registry := make(map[string]*enumInfo)
	a := &Analyzer{
		Name: "exhaustive",
		Doc:  "flag switches over //fleetvet:exhaustive enums that miss enumerators",
	}
	a.Run = func(pass *Pass) error {
		registerEnums(pass, registry)
		checkSwitches(pass, registry)
		return nil
	}
	return a
}

// registerEnums scans one package's declarations for exhaustive enum
// types and their enumerator constants.
func registerEnums(pass *Pass, registry map[string]*enumInfo) {
	// Types first: the const specs may precede the type declaration in
	// file order.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasDirective(pass.Fset, gd.Doc, "exhaustive") &&
					!hasDirective(pass.Fset, ts.Doc, "exhaustive") &&
					!hasDirective(pass.Fset, ts.Comment, "exhaustive") {
					continue
				}
				info := &enumInfo{
					pkgPath: pass.Pkg.Path(),
					name:    ts.Name.Name,
					byValue: make(map[string]bool),
				}
				registry[info.key()] = info
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				sentinel := hasDirective(pass.Fset, vs.Doc, "sentinel") ||
					hasDirective(pass.Fset, vs.Comment, "sentinel")
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					info := registry[namedKey(obj.Type())]
					if info == nil || sentinel {
						continue
					}
					val := obj.Val().ExactString()
					if info.byValue[val] {
						continue // alias of an already-registered member
					}
					info.byValue[val] = true
					info.members = append(info.members, enumMember{name: name.Name, value: val})
				}
			}
		}
	}
}

// namedKey renders a type's registry key, or "" for unnamed types.
func namedKey(t types.Type) string {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// checkSwitches verifies every switch over a registered enum covers all
// of its enumerators.
func checkSwitches(pass *Pass, registry map[string]*enumInfo) {
	samePkg := func(info *enumInfo) bool { return info.pkgPath == pass.Pkg.Path() }
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			t := pass.TypesInfo.TypeOf(sw.Tag)
			if t == nil {
				return true
			}
			info := registry[namedKey(t)]
			if info == nil {
				return true
			}
			covered := make(map[string]bool)
			for _, clause := range sw.Body.List {
				cc, ok := clause.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, expr := range cc.List {
					// Coverage is by constant value, so a case naming a
					// re-exported alias covers the original enumerator.
					if tv, ok := pass.TypesInfo.Types[expr]; ok && tv.Value != nil {
						covered[tv.Value.ExactString()] = true
					}
				}
			}
			var missing []string
			for _, m := range info.members {
				// From another package only the exported enumerators
				// are nameable, so only those are required.
				if !samePkg(info) && !ast.IsExported(m.name) {
					continue
				}
				if !covered[m.value] {
					missing = append(missing, m.name)
				}
			}
			if len(missing) > 0 {
				pass.Reportf(sw.Pos(), "switch over %s.%s is missing cases: %s",
					info.pkgPath, info.name, strings.Join(missing, ", "))
			}
			return true
		})
	}
}
