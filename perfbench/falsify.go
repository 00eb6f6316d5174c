package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/experiment"
	"repro/internal/falsify"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/scs"
)

const (
	// falsifyBlock is the throughput block in evaluations, about 50 to
	// 100 ms: short against the host's slow phases (WORKLOADS.md), so
	// the blocks' sustained rate sees them.
	falsifyBlock = 64
	// falsifyEvalEvery samples one evaluation in this many for the
	// traced evaluation-latency metrics.
	falsifyEvalEvery = 32
	// falsifyWarmEvals is the untimed warm-up, in evaluations, counted in
	// set-up.
	falsifyWarmEvals = 1024
)

// falsifyPin is the corpus hash of the first search seed derived from
// the default workload seed.
const falsifyPin = "25bd83db49bb61eddb0d476a9b049c665954297612613fd58a2f2545afc3473a"

// falsifyBench runs falsify.Search over the built-in meal+occlusion
// space (the cmd/falsify default) on glucosym patient 0, 150 cycles:
// random exploration, coordinate descent and the L-BFGS polish, over
// search seeds derived from the workload seed. An operation is one
// closed-loop evaluation, counted at Config.NewMonitor. A throughput
// block is falsifyBlock consecutive evaluations, timed across search
// boundaries, because a search's length depends on its seed (288 to 919
// evaluations, mostly in the polish). Latency is a whole search plus the
// replay of its hardest entry: the time to a verified finding.
// Every search seed runs twice in a row, and the repeat must reproduce
// the first corpus.
type falsifyBench struct {
	o      options
	base   falsify.Config
	hashes map[int64]string // corpus hash by search seed, from the first search
}

func (f *falsifyBench) setupReps() int { return 5 }

// searchSeed is the i-th search seed of the workload.
func (f *falsifyBench) searchSeed(i int) int64 { return derive(f.o.seed, uint64(100+i)) }

func (f *falsifyBench) setUp() error {
	f.base = falsify.Config{
		Space:    falsifySpace(),
		Platform: experiment.Glucosym(),
		Patient:  0,
		Steps:    150,
		Samples:  32,
		Refine:   3,
		Sweeps:   2,
		Polish:   true,
		Keep:     16,
	}
	if f.o.small {
		f.base.Samples, f.base.Refine, f.base.Sweeps, f.base.Steps = 6, 1, 1, 40
	}
	// Warm-up: evaluations at points drawn from the workload seed.
	rng := rand.New(rand.NewSource(derive(f.o.seed, 99)))
	params := f.base.Space.Params
	for range falsifyWarmEvals {
		x := make([]float64, len(params))
		for j, pr := range params {
			x[j] = pr.Lo + rng.Float64()*(pr.Hi-pr.Lo)
		}
		prog, err := f.base.Space.Instantiate(x)
		if err != nil {
			continue // the search skips such points too
		}
		if _, err := falsify.EvalProgram(f.base, prog); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (f *falsifyBench) tearDown() {}

// falsifySpace is cmd/falsify's built-in template: initial glucose, an
// unannounced meal and a pump occlusion, all free.
func falsifySpace() falsify.Space {
	return falsify.Space{
		Base: fault.Program{Name: "meal-occlusion", Segments: []fault.Segment{
			{Kind: fault.SegInitBG, Value: 140},
			{Kind: fault.SegMeal, Value: 60, Start: 10, Duration: 6},
			{Kind: fault.SegOcclusion, Start: 20, Duration: 12},
		}},
		Params: []falsify.Param{
			{Seg: 0, Field: falsify.FieldValue, Lo: 90, Hi: 180},
			{Seg: 1, Field: falsify.FieldValue, Lo: 20, Hi: 120},
			{Seg: 1, Field: falsify.FieldStart, Lo: 0, Hi: 60},
			{Seg: 2, Field: falsify.FieldStart, Lo: 0, Hi: 90},
			{Seg: 2, Field: falsify.FieldDuration, Lo: 6, Hi: 36},
		},
	}
}

func (f *falsifyBench) phase(traced bool, seconds float64) (phaseResult, error) {
	p := phaseResult{spans: &spanLog{}}
	tr := newTracer(traced)
	cfg := f.base
	if traced {
		cfg.Platform = tr.scalarPlatform(cfg.Platform)
	}
	// Every evaluation builds its monitor once, so the NewMonitor calls
	// are the evaluation clock: a block runs from the call that opens it
	// to the one that opens the next.
	var evals, blockStart, last int64
	var rates, evalMs []float64
	block := int64(falsifyBlock)
	if f.o.small {
		block = 8
	}
	newMon := func() (monitor.Monitor, error) { return monitor.NewCAWOT(scs.TableI(), scs.Params{}) }
	if traced {
		newMon = tr.wrapMonitor(newMon)
	}
	cfg.NewMonitor = func() (monitor.Monitor, error) {
		t := now()
		if evals%block == 0 {
			if blockStart != 0 {
				rates = append(rates, float64(block)/(float64(t-blockStart)/1e9))
			}
			blockStart = t
		}
		if last != 0 && evals%falsifyEvalEvery == 0 {
			evalMs = append(evalMs, float64(t-last)/1e6)
		}
		last = t
		evals++
		return newMon()
	}
	var visited, skipped, polish int64
	var searchNs int64
	var corpora []*falsify.Corpus
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		cfg.Seed = f.searchSeed(i / 2)
		t0, before := now(), evals
		last = 0 // an evaluation interval never spans two searches
		corpus, err := falsify.Search(cfg)
		t1 := now()
		p.spans.add("falsify.search", "search", i, t0, t1)
		if err != nil {
			p.attempted += evals - before
			p.failed += evals - before
			p.checkf("search seed %d: %v", cfg.Seed, err)
			continue
		}
		// Replay gate: the hardest entry must reproduce its margin.
		hardest := corpus.Evals[0]
		replay, err := falsify.EvalProgram(cfg, hardest.Program)
		t2 := now()
		p.spans.add("falsify.replay", "search", i, t1, t2)
		p.spans.add("search", "", i, t0, t2)
		searchNs += t2 - t0
		n := evals - before
		p.attempted += n
		p.latencyMs = append(p.latencyMs, float64(t2-t0)/1e6)
		if err != nil || replay.MinMargin != hardest.MinMargin || replay.MinStep != hardest.MinStep {
			p.failed++
			p.checkf("seed %d: replay %v@%d (%v) diverges from %v@%d",
				cfg.Seed, replay.MinMargin, replay.MinStep, err, hardest.MinMargin, hardest.MinStep)
		}
		if h := f.checkCorpus(&p, cfg.Seed, corpus); i == 0 {
			p.digest = h
		}
		visited += int64(corpus.Visited)
		skipped += int64(corpus.Skipped)
		polish += n - int64(corpus.Visited) - 1 // the polish's own evaluations bypass Visited; 1 is the replay
		if traced {
			corpora = append(corpora, corpus)
		}
	}
	p.seconds = time.Since(start).Seconds()
	p.rate = sustained(rates)
	logBlocks("falsify", rates)
	if traced {
		// The corpus programs' compile time, taken after the clock stops
		// so the traced blocks do no work the untraced ones skip.
		t0, compiled := now(), 0
		for _, c := range corpora {
			for _, ev := range c.Evals {
				if _, err := ev.Program.Compile(cfg.Steps, 5); err != nil {
					p.checkf("corpus program: %v", err)
				}
				compiled++
			}
		}
		compileNs := now() - t0
		s := &tr.scalar
		lat, _ := tailOf(evalMs) // too few evaluations reads as zero
		p.layers = map[string]float64{
			"sim.scalar_ns_per_step": s.patient.perCall(),
			"control.decides":        float64(s.ctrl.n),
			"control.ns_per_decide":  s.ctrl.perCall(),
			"control.busy_share":     ratio(float64(s.ctrl.ns), float64(searchNs)),
			"sim.busy_share":         ratio(float64(s.patient.ns), float64(searchNs)),
			"monitor.ns_per_step":    s.mon.perCall(),
			"fault.compile_ms":       ratio(float64(compileNs), float64(compiled)) / 1e6,
			"falsify.evals":          float64(evals),
			"falsify.polish_evals":   float64(polish),
			"falsify.skipped":        float64(skipped),
			"falsify.useful_ratio":   ratio(float64(visited), float64(visited+skipped)),
			"falsify.eval_ms_p50":    median(evalMs),
			"falsify.eval_ms_tail":   lat.Value,
			"falsify.other_share":    1 - ratio(float64(s.patient.ns+s.ctrl.ns+s.mon.ns), float64(searchNs)),
		}
	}
	return p, nil
}

// checkCorpus pins the corpus of the default workload's first search
// seed and requires every repeat of a seed to reproduce its corpus. It
// returns the corpus hash.
func (f *falsifyBench) checkCorpus(p *phaseResult, seed int64, c *falsify.Corpus) string {
	data, err := c.EncodeJSON()
	if err != nil {
		p.checkf("seed %d: encode corpus: %v", seed, err)
		return ""
	}
	sum := sha256.Sum256(data)
	h := hex.EncodeToString(sum[:])
	if f.hashes == nil {
		f.hashes = make(map[int64]string)
	}
	if first, ok := f.hashes[seed]; !ok {
		f.hashes[seed] = h
	} else if h != first {
		p.checkf("seed %d: corpus hash %s, an earlier search had %s", seed, h, first)
	}
	if f.o.pinned() && seed == f.searchSeed(0) && h != falsifyPin {
		p.checkf("seed %d: corpus hash %s, pinned %s", seed, h, falsifyPin)
	}
	return h
}
