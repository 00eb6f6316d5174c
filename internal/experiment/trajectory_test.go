package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/sensor"
)

// trajectoryPins are the absolute expectations of
// TestCampaignTrajectoryDigest, by platform: the SHA-256 of the
// concatenated trace CSVs (WriteCSV, 'g', -1 floats, hazard labels
// included) and the Hazardous count.
var trajectoryPins = map[string]struct {
	digest    string
	hazardous int64
}{
	"glucosym": {"f78fa0ab7021d76b1769e67adf6b6c5d5dea711ca75abc75d4644aad7930ba57", 47},
	"t1ds2013": {"89d68588f8277d9045f7c4f615974538ce02069129556a70a550bf76baa21d84", 85},
}

// TestCampaignTrajectoryDigest pins the closed loop absolutely, not
// against a second run of the same code: a small fleet per platform
// (patients {0, 3}, the first and last 24 campaign programs, CGM noise
// 2.5, seed 1, 150 cycles) must reproduce a fixed trace digest and
// hazard count. At 150 five-minute cycles every dose history passes
// the 60-dose steady state, both controllers (OpenAPS and Basal-Bolus)
// run, and the Eq. 5 labels are part of the digest.
func TestCampaignTrajectoryDigest(t *testing.T) {
	all := fault.CampaignPrograms(nil)
	table := append(append([]fault.Program(nil), all[:24]...), all[len(all)-24:]...)
	for _, plat := range Platforms() {
		res, err := fleet.Run(context.Background(), fleet.Config{
			Platform:  fleet.Platform(plat),
			Patients:  []int{0, 3},
			Scenarios: table,
			Steps:     150,
			Seed:      1,
			Sensor:    &sensor.Config{NoiseSD: 2.5},
		})
		if err != nil {
			t.Fatalf("%s: %v", plat.Name, err)
		}
		if want := int64(2 * len(table)); res.Completed != want || int64(len(res.Traces)) != want {
			t.Fatalf("%s: %d completed, %d traces, want %d", plat.Name, res.Completed, len(res.Traces), want)
		}
		h := sha256.New()
		for _, tr := range res.Traces {
			if err := tr.WriteCSV(h); err != nil {
				t.Fatal(err)
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		pin := trajectoryPins[plat.Name]
		if got != pin.digest || res.Hazardous != pin.hazardous {
			t.Errorf("%s: trace digest %s, %d hazardous; want %s, %d",
				plat.Name, got, res.Hazardous, pin.digest, pin.hazardous)
		}
	}
}
