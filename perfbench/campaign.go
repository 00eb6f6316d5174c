package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/sensor"
)

const (
	// campaignSteps is the session length: 150 five-minute cycles. It is
	// also the throughput block in rounds: a shard's lanes start together
	// and run the same number of cycles, so its sessions turn over in
	// waves of campaignSteps rounds, and a block of that length holds one
	// of every round of a session, refill included.
	campaignSteps = 150
	// campaignParallel is the fleet's shard count. One shard measures the
	// batched per-session path without the second vCPU: in alternating
	// runs on a 2-vCPU host, one shard's sustained rate stayed within 7 %
	// while two shards' ranged over 40 % (WORKLOADS.md). Serve runs the
	// multi-shard fleet.
	campaignParallel = 1
)

// campaignPins are the hazardous-session counts of one pass for the
// default seed, by platform. Completed and Steps are checked exactly on
// every seed; Alarmed is zero (no monitor runs).
var campaignPins = map[string]int64{
	"glucosym": 4353,
	"t1ds2013": 4482,
}

// campaign runs the Section V-B matrix (fault.CampaignPrograms, 882
// compiled programs) over both 10-patient cohorts, glucosym with OpenAPS
// and t1ds2013 with Basal-Bolus, with seeded CGM noise and traces
// discarded. A pass is one fleet run per cohort; an operation is a
// session, and throughput counts control cycles.
type campaign struct {
	o         options
	platforms []experiment.Platform
	patients  []int
	table     []fault.Program
	seed      int64
	sensor    sensor.Config
	compileMs float64
	hazards   map[string]int64 // first pass's counts, by platform
}

func (c *campaign) setupReps() int { return 5 }

func (c *campaign) setUp() error {
	c.platforms = experiment.Platforms()
	c.table = fault.CampaignPrograms(nil)
	c.patients = nil
	if c.o.small {
		c.table = c.table[:24]
		c.patients = []int{0, 1}
	}
	c.seed = derive(c.o.seed, 1)
	c.sensor = sensor.Config{NoiseSD: 2.5}
	t0 := now()
	for i := range c.table {
		if _, err := c.table[i].Compile(campaignSteps, 5); err != nil {
			return fmt.Errorf("campaign program %d: %w", i, err)
		}
	}
	c.compileMs = float64(now()-t0) / 1e6
	// Warm-up: one patient over the whole table per platform, outside
	// the throughput blocks but counted in set-up. It runs several lane
	// refills, so first-wave allocation is not most of what set-up times.
	for _, plat := range c.platforms {
		sc := c.sensor
		if _, err := fleet.Run(context.Background(), fleet.Config{
			Platform: fleet.Platform(plat), Patients: []int{0}, Scenarios: c.table,
			Steps: campaignSteps, Parallel: campaignParallel, Seed: c.seed, Sensor: &sc, DiscardTraces: true,
		}); err != nil {
			return fmt.Errorf("warm-up on %s: %w", plat.Name, err)
		}
	}
	return nil
}

func (c *campaign) tearDown() {}

// sessions is the number of sessions one platform runs per pass.
func (c *campaign) sessions(p experiment.Platform) int64 {
	n := p.NumPatients
	if c.patients != nil {
		n = len(c.patients)
	}
	return int64(n * len(c.table))
}

// phase runs whole passes until the window has passed. Throughput is a
// pass's control cycles over the time the pass takes with each cohort
// at its sustained rate: the lane steps per second the shard holds in
// nine of ten blocks of campaignSteps rounds. Fleet start-up and the
// last, partial wave of a run fall outside the blocks.
func (c *campaign) phase(traced bool, seconds float64) (phaseResult, error) {
	p := phaseResult{spans: &spanLog{}}
	var totals []fleetTotals
	var names []string
	hazards := make(map[string]int64)
	blocks := make(map[string][]float64)
	start := time.Now()
	for pass := 0; time.Since(start).Seconds() < seconds; pass++ {
		passStart := now()
		for _, plat := range c.platforms {
			tr := newTracer(traced)
			tr.blockRounds = campaignSteps
			if c.o.small {
				tr.blockRounds = 10 // a smoke run's shards run a single wave
			}
			sc := c.sensor
			want := c.sessions(plat)
			t0 := now()
			res, err := fleet.Run(context.Background(), fleet.Config{
				Platform:      fleet.Platform(tr.fleetPlatform(plat)),
				Patients:      c.patients,
				Scenarios:     c.table,
				Steps:         campaignSteps,
				Parallel:      campaignParallel,
				Seed:          c.seed,
				Sensor:        &sc,
				DiscardTraces: true,
			})
			p.spans.add("fleet.run."+plat.Name, "pass", pass, t0, now())
			p.attempted += want
			if err != nil {
				p.failed += want
				p.checkf("%s: %v", plat.Name, err)
				continue
			}
			hazards[plat.Name] = res.Hazardous
			c.check(&p, plat.Name, want, res)
			tot := tr.totals()
			blocks[plat.Name] = append(blocks[plat.Name], tot.blocks...)
			if traced && tot.ctrl.n != res.Steps {
				p.checkf("%s: %d Decide calls for %d control cycles", plat.Name, tot.ctrl.n, res.Steps)
			}
			totals = append(totals, tot)
			names = append(names, plat.Name)
		}
		p.spans.add("pass", "", pass, passStart, now())
	}
	p.seconds = time.Since(start).Seconds()
	var passSteps, passSecs float64
	for _, plat := range c.platforms {
		steps := float64(c.sessions(plat) * campaignSteps)
		passSteps += steps
		passSecs += ratio(steps, sustained(blocks[plat.Name]))
		logBlocks("campaign "+plat.Name, blocks[plat.Name])
	}
	p.rate = ratio(passSteps, passSecs)
	var d []string
	for _, plat := range c.platforms {
		d = append(d, fmt.Sprintf("%s:%d", plat.Name, hazards[plat.Name]))
	}
	p.digest = strings.Join(d, " ")
	if traced {
		p.layers = c.layers(names, totals)
	}
	return p, nil
}

// check applies the output checks to one platform run.
func (c *campaign) check(p *phaseResult, name string, want int64, res fleet.Result) {
	if res.Completed != want || res.Steps != want*campaignSteps || res.Alarmed != 0 {
		p.checkf("%s: completed %d steps %d alarmed %d, want %d, %d, 0",
			name, res.Completed, res.Steps, res.Alarmed, want, want*campaignSteps)
	}
	if c.hazards == nil {
		c.hazards = make(map[string]int64)
	}
	if first, ok := c.hazards[name]; !ok {
		c.hazards[name] = res.Hazardous
	} else if res.Hazardous != first {
		p.checkf("%s: %d hazardous sessions, an earlier pass had %d", name, res.Hazardous, first)
	}
	if pin := campaignPins[name]; c.o.pinned() && res.Hazardous != pin {
		p.checkf("%s: %d hazardous sessions, pinned %d", name, res.Hazardous, pin)
	}
}

// layers turns the traced fleet runs into per-layer metrics, and names
// each platform's hottest layer.
func (c *campaign) layers(names []string, totals []fleetTotals) map[string]float64 {
	m := map[string]float64{"fault.compile_ms": c.compileMs}
	var all counters
	var skew []float64
	byPlat := map[string]*counters{}
	for i, t := range totals {
		all.add(&t.counters)
		skew = append(skew, t.skew)
		if byPlat[names[i]] == nil {
			byPlat[names[i]] = &counters{}
		}
		byPlat[names[i]].add(&t.counters)
	}
	for name, t := range byPlat {
		model := map[string]string{"glucosym": "glucosym", "t1ds2013": "uvapadova"}[name]
		m["sim."+model+".ns_per_lane_step"] = ratio(float64(t.sim.ns), float64(t.laneSteps))
		shares := map[string]float64{
			"sim":     ratio(float64(t.gapSim), float64(t.roundTotal)),
			"control": ratio(float64(t.gapCtrl), float64(t.roundTotal)),
			"other":   ratio(float64(t.otherNs), float64(t.roundTotal)),
		}
		hot := "sim"
		for layer, s := range shares {
			m["fleet."+name+"."+layer+"_share"] = s
			if s > shares[hot] {
				hot = layer
			}
		}
		logf("campaign %s: hottest layer %s (sim %.1f%%, control %.1f%%, other %.1f%% of round time; "+
			"other is plan/perturb, sensor and stepper bookkeeping)",
			name, hot, 100*shares["sim"], 100*shares["control"], 100*shares["other"])
	}
	all.fill(m)
	m["fleet.shard_skew"] = median(skew)
	return m
}

// fill writes the fleet-engine metrics every batched workload shares.
func (c *counters) fill(m map[string]float64) {
	m["sim.busy_share"] = ratio(float64(c.gapSim), float64(c.roundTotal))
	m["control.busy_share"] = ratio(float64(c.gapCtrl), float64(c.roundTotal))
	m["fleet.round_other_share"] = ratio(float64(c.otherNs), float64(c.roundTotal))
	m["control.decides"] = float64(c.ctrl.n)
	m["control.ns_per_decide"] = c.ctrl.perCall()
	m["fleet.rounds"] = float64(c.sim.n)
	us := make([]float64, len(c.roundNs))
	for i, ns := range c.roundNs {
		us[i] = float64(ns) / 1e3
	}
	m["fleet.round_us_p50"] = median(us)
	tl, _ := tailOf(us) // too few rounds reads as zero
	m["fleet.round_us_tail"] = tl.Value
	m["fleet.session_start_us"] = ratio(float64(c.startNs), float64(c.starts)) / 1e3
	mean := func(rc roundClass) float64 {
		return ratio(float64(c.class[rc].ns), float64(c.class[rc].n)) / 1e3
	}
	if c.class[roundEpoch].n > 0 {
		m["fleet.epoch_round_extra_us"] = mean(roundEpoch) - mean(roundPlain)
	}
	if c.class[roundGate].n > 0 {
		m["fleet.gate_round_extra_us"] = mean(roundGate) - mean(roundEpoch)
	}
}
