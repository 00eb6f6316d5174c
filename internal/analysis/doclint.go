package analysis

import (
	"go/ast"
)

// NewDocLint returns the documentation-contract pass: every library
// package must carry a package comment, and every exported top-level
// declaration (functions, methods on exported receivers, types,
// constants, variables) must carry a doc comment. Commands and
// examples (package main) are exempt. The pass is purely syntactic.
func NewDocLint() *Analyzer {
	a := &Analyzer{
		Name: "doclint",
		Doc:  "flag missing package comments and undocumented exported APIs",
	}
	a.Run = func(pass *Pass) error {
		if pass.PkgName == "main" || len(pass.Files) == 0 {
			return nil
		}
		hasPkgDoc := false
		for _, f := range pass.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			pass.Reportf(pass.Files[0].Name.Pos(), "package %s has no package comment", pass.PkgName)
		}
		for _, f := range pass.Files {
			lintFileDocs(pass, f)
		}
		return nil
	}
	return a
}

// lintFileDocs reports each undocumented exported declaration of one
// file.
func lintFileDocs(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue
			}
			pass.Reportf(d.Pos(), "%s lacks a doc comment", funcDeclName(d))
		case *ast.GenDecl:
			if d.Doc != nil && len(d.Specs) == 1 {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && (d.Doc == nil || len(d.Specs) > 1) {
						pass.Reportf(s.Pos(), "type %s lacks a doc comment", s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || d.Doc != nil && len(d.Specs) == 1 {
						continue
					}
					for _, n := range s.Names {
						if !n.IsExported() {
							continue
						}
						// Inside a documented const/var block, individual
						// specs may ride on the block comment.
						if d.Doc != nil {
							continue
						}
						pass.Reportf(s.Pos(), "%s lacks a doc comment", n.Name)
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver base type is
// exported (methods on unexported types are internal API).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch n := t.(type) {
		case *ast.StarExpr:
			t = n.X
		case *ast.IndexExpr: // generic receiver, one type parameter
			t = n.X
		case *ast.IndexListExpr: // generic receiver, two or more type parameters
			t = n.X
		case *ast.Ident:
			return n.IsExported()
		default:
			return false
		}
	}
}

// funcDeclName renders a function or method name for the finding.
func funcDeclName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return "func " + d.Name.Name
	}
	return "method " + d.Name.Name
}
