// Command fleetvet is the repo's single lint entry point: it runs the
// project-invariant static-analysis suite of internal/analysis — the
// determinism, noalloc, and exhaustive passes plus the doclint
// documentation pass — over Go package patterns and prints findings in
// clickable file:line:col format.
//
// Usage:
//
//	fleetvet [packages]
//
// With no arguments it vets ./... . Exit status is 1 when findings
// were reported, 2 on a loading or analysis failure. `make lint` runs
// it over the whole module, and the CI lint step fails a change that
// violates any declared invariant; see DESIGN.md "Static invariants"
// for the pass catalog and the //fleetvet: directive grammar.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if len(patterns) == 1 && (patterns[0] == "-h" || patterns[0] == "-help" || patterns[0] == "--help") {
		fmt.Fprintln(os.Stderr, "usage: fleetvet [packages]")
		fmt.Fprintln(os.Stderr, "passes:")
		for _, a := range analysis.Suite() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		os.Exit(2)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetvet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetvet: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(analysis.Suite(), pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		d.Pos.Filename = relPath(cwd, d.Pos.Filename)
		fmt.Println(d)
	}
	if n := len(diags); n > 0 {
		fmt.Printf("fleetvet: %d findings\n", n)
		os.Exit(1)
	}
}

// relPath renders a finding path relative to the working directory so
// CI log lines are clickable from the repo root.
func relPath(cwd, path string) string {
	rel, err := filepath.Rel(cwd, path)
	if err != nil || len(rel) >= len(path) {
		return path
	}
	return rel
}
