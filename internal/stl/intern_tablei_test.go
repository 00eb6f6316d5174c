package stl_test

import (
	"testing"

	"repro/internal/scs"
	"repro/internal/stl"
)

// TestInternMatchesStringTableI checks the compiler's intern keys
// against String on Table I: the rule antecedents CAWT and CAWOT
// compile, then the full rule bodies.
func TestInternMatchesStringTableI(t *testing.T) {
	rules := scs.TableI()
	th := scs.Defaults(rules)
	var fs []stl.Formula
	for _, r := range rules {
		fs = append(fs, r.Antecedent(scs.Params{}, th[r.ID]))
	}
	for _, r := range rules {
		fs = append(fs, r.STL(scs.Params{}, th[r.ID]))
	}
	stl.CheckInternMatchesString(t, fs)
}
