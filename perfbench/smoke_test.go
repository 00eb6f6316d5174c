package main

import "testing"

// TestSmoke runs every workload at smoke-test size, untraced and then
// traced, through its output checks. The seed is not the default one, so
// only the unpinned checks apply.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"campaign", "serve", "falsify", "paper"} {
		t.Run(name, func(t *testing.T) {
			b, err := newBench(options{workload: name, seed: 7, seconds: 1, small: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.setUp(); err != nil {
				b.tearDown()
				t.Fatalf("set-up: %v", err)
			}
			defer b.tearDown()
			var digests []string
			for _, traced := range []bool{false, true} {
				p, err := b.phase(traced, 1)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if len(p.checkErrs) > 0 || p.failed > 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, p.failed, p.attempted, p.checkErrs)
				}
				if p.attempted == 0 || !(p.rate > 0) {
					t.Fatalf("traced=%v: no work measured (attempted %d, rate %v)", traced, p.attempted, p.rate)
				}
				if traced != (p.layers != nil) {
					t.Errorf("traced=%v: per-layer metrics present = %v", traced, p.layers != nil)
				}
				for metric := range p.layers {
					if !isPerLayer(metric) {
						t.Errorf("unknown per-layer metric %q", metric)
					}
				}
				digests = append(digests, p.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("traced outputs %q differ from untraced %q", digests[1], digests[0])
			}
		})
	}
}
