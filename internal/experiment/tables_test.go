package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// paperTablesPin is the SHA-256 of the tables TestPaperTablesDigest
// renders.
const paperTablesPin = "b8d4794c29a97991fa1dfaddbd53f76bd11cf2a2bde4602b80266d2f6b49d696"

// renderPaperTables renders what cmd/experiments prints for the quick
// suite, in its order: Figs. 7a/7b/8, Tables V/VI with Fig. 9 and the
// rule attribution, Table VII on a small scenario set, Table VIII, the
// loss and adversarial ablations, and fault-free generalization.
// StepTime is wall clock, so it is zeroed before Tables V/VI render.
func renderPaperTables(t *testing.T, fx quickSuiteFixture) string {
	t.Helper()
	var out strings.Builder
	out.WriteString(HazardCoverageByPatient(fx.traces).Render())
	out.WriteString(RenderTTH(TTHDistribution(fx.traces)))
	out.WriteString(CoverageByFaultAndBG(fx.traces).Render())

	evals, err := fx.suite.EvaluateAll(nil, fx.test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range evals {
		evals[i].StepTime = 0
	}
	out.WriteString(RenderEvals("Tables V & VI", evals))
	out.WriteString(RenderReaction(evals))
	out.WriteString(RenderRuleAttribution(evals))

	scen := ScenarioSubset(60)
	baseline, err := Run(CampaignConfig{Platform: fx.plat, Patients: []int{0}, Scenarios: scen})
	if err != nil {
		t.Fatal(err)
	}
	var mit []MitigationResult
	for _, name := range []string{"CAWT", "DT", "MLP", "MPC"} {
		res, err := fx.suite.EvaluateMitigation(name, baseline, CampaignConfig{Patients: []int{0}, Scenarios: scen})
		if err != nil {
			t.Fatal(err)
		}
		mit = append(mit, res)
	}
	out.WriteString(RenderMitigation(mit))

	rows, err := fx.suite.TableVIII(fx.test, nil)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(RenderTableVIII(rows))
	lossRows, err := LossAblation(fx.train, fx.test)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(RenderLossAblation(lossRows))
	adv, err := AdversarialAblation(fx.ff, fx.train, fx.test)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(RenderAdversarialAblation(adv))
	gen, err := fx.suite.EvaluateFaultFreeGeneralization([]string{"CAWT", "DT", "MLP", "LSTM"}, fx.test, fx.ff)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(RenderFaultFreeGeneralization(gen))
	return out.String()
}

// TestPaperTablesDigest pins the rendered paper tables absolutely, not
// against a second run of the same code: the quick suite's tables must
// hash to a fixed digest. A change to replay, the metrics, training or
// the closed loop that moves any printed figure fails here.
func TestPaperTablesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("suite training is seconds-long")
	}
	out := renderPaperTables(t, quickSuite(t))
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != paperTablesPin {
		t.Errorf("paper tables digest %s, pinned %s; rendered:\n%s", got, paperTablesPin, out)
	}
}
