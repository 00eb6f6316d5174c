// Package analysis implements fleetvet, the repo's project-invariant
// static-analysis suite: a multichecker of custom passes that enforce,
// at compile time, the invariants the differential and AllocsPerRun
// tests enforce at run time — determinism of the fault-injection
// engine, allocation-freedom of the streaming hot paths, and
// exhaustiveness of switches over the fleet's enumerations — plus the
// documentation contract (doclint).
//
// The suite is self-contained on the Go standard library: packages are
// loaded with `go list -export -deps -json` and type-checked with the
// stdlib gc importer against the build cache's export data, so no
// third-party analysis framework is required. Each pass mirrors the
// golang.org/x/tools/go/analysis shape (Analyzer, Pass, Reportf) and is
// exercised by golden packages under testdata/src via the analysistest
// subpackage.
//
// # Directive grammar
//
// Passes are driven by //fleetvet: comment directives:
//
//	//fleetvet:deterministic
//	    Package marker (conventionally in doc.go). The determinism
//	    pass checks only marked packages.
//
//	//fleetvet:nondeterministic <reason>
//	    Statement waiver for the determinism pass: suppresses findings
//	    on its own line or on the single line directly below — exactly
//	    one statement, never a whole file. The reason is mandatory; a
//	    bare waiver is itself a finding.
//
//	//fleetvet:noalloc
//	    Function marker (in the doc comment). The noalloc pass flags
//	    allocation-prone constructs inside marked functions.
//
//	//fleetvet:alloc <reason>
//	    Statement waiver for the noalloc pass, with the same one-
//	    statement scope and mandatory reason as nondeterministic.
//
//	//fleetvet:exhaustive
//	    Type marker (on the enum type declaration). Every switch over
//	    the marked type, in any vetted package, must cover all of its
//	    declared enumerator constants.
//
//	//fleetvet:sentinel
//	    Constant marker (on a const spec): excludes a count/limit
//	    sentinel from the enumerator set of its exhaustive type.
//
// # Adding a pass
//
// Write a `func NewFoo() *Analyzer` constructor whose Run inspects
// pass.Files with pass.TypesInfo and calls pass.Reportf for each
// finding, append it to the slice returned by Suite, add golden
// packages under testdata/src/foo, and test it with analysistest.Run.
// Passes needing cross-package state (like exhaustive's enum registry)
// close over it in the constructor; the driver analyzes packages in
// dependency order, so a dependency's declarations are always
// registered before its importers are checked.
package analysis
