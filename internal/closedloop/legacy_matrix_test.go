package closedloop

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/sensor"
)

// TestLegacyMatrixGoldenDifferential is the scenario-IR golden
// differential: driving legacy 882-matrix entries through the compiled
// program path (Scenario.Program → Compile → Config.Plan) must write a
// byte-identical trace CSV to the original enum injector path
// (Config.Fault with the scenario's InitialBG). The campaign's full
// 150-cycle horizon contains every sampled fault window, start to end,
// and a seeded CGM noise model sits in the loop, so the comparison
// covers window edges and the sensor RNG threading too. The fleet steps
// Plan-driven sessions exclusively; the enum Fault path still serves
// cmd/apsim and the examples, and the batched-vs-scalar stepping
// differential in internal/fleet links this scalar loop to the fleet's
// batched one.
func TestLegacyMatrixGoldenDifferential(t *testing.T) {
	const (
		steps    = 150
		cycleMin = 5
	)
	full := fault.Campaign(nil)
	run := func(patient int, sc fault.Scenario, seed int64, compiled bool) []byte {
		p, ctrl := newGlucosymRig(t, patient)
		cfg := Config{
			Platform: "glucosym/" + ctrl.Name(), Steps: steps, CycleMin: cycleMin,
			Patient: p, Controller: ctrl,
		}
		if compiled {
			plan, err := sc.Program().Compile(steps, cycleMin)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Plan = plan // InitialBG resolves from the plan
		} else {
			cfg.InitialBG = sc.InitialBG
			if sc.Fault.Duration > 0 {
				f := sc.Fault
				cfg.Fault = &f
			}
		}
		model, err := sensor.New(sensor.Config{NoiseSD: 3}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStepper(cfg, StepperOptions{Sensor: model.Read})
		if err != nil {
			t.Fatal(err)
		}
		for !st.Done() {
			st.Step()
		}
		var buf bytes.Buffer
		if err := st.Finish().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	windows := 0
	for _, patient := range []int{0, 3} {
		for _, i := range []int{0, 97, 250, 555, 881} {
			sc := full[i]
			seed := int64(42 + 1000*patient + i)
			enum := run(patient, sc, seed, false)
			program := run(patient, sc, seed, true)
			if len(enum) == 0 {
				t.Fatalf("patient %d scenario %d: enum path wrote no trace", patient, i)
			}
			if !bytes.Equal(enum, program) {
				t.Fatalf("patient %d scenario %d (%s): compiled-program trace differs from the enum golden",
					patient, i, sc.Fault.Name())
			}
			if f := sc.Fault; f.Duration > 0 && f.StartStep+f.Duration < steps {
				windows++
			}
		}
	}
	if windows == 0 {
		t.Fatal("no fault window closes inside the horizon — comparison is vacuous")
	}
}
