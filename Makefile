GO ?= go

.PHONY: build test race bench bench-smoke smoke-fleetd smoke-snapshot smoke-falsify fuzz-snapshot fuzz-scenario fuzz-events short vet fmt lint docs ci

## build: compile every package and command
build:
	$(GO) build ./...

## test: tier-1 verify — build plus the full test suite
test: build
	$(GO) test ./...

## short: the fast subset (skips seconds-long suite training)
short:
	$(GO) test -short ./...

## race: full suite under the race detector (the fleet engine's
## concurrency tests run ≥1000 sessions here)
race:
	$(GO) test -race ./...

## bench: every benchmark with allocation stats; doubles as the paper's
## results summary (see bench_test.go) and the fleet throughput report
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

## bench-smoke: the fast hot-path benchmarks CI tracks per commit — the
## streaming-vs-legacy STL push (internal/stl), the streaming-vs-legacy
## CAWT step (internal/monitor; the redesign's "streaming no slower than
## legacy" guard), the per-session-vs-batched rule-evaluation kernel,
## the per-session-vs-batched patient stepping kernel (the SoA speedup
## guard; fewer iterations — each op steps a 128-lane bank), the
## closed-loop kernels (one OpenAPS cycle of IOB tracker work on a full
## dose history, and Eq. 5 labeling of one 150-cycle trace), the
## telemetry wire kernels (the allocation-free JSON appender vs the
## encoding/json oracle it replaced, and one fleetd fan-out Emit into a
## subscriber queue its drainer swaps out), the epoch barrier's
## canonical merge of one serving-shaped epoch (99 sessions x 8 rounds,
## 0 allocs once warm, vs the sort.Slice oracle it replaced), and the
## sink delivery shapes (run-end merge vs epoch merge; fewer iterations
## — each op is a whole 100-session fleet), and one LSTM replay over a
## fixed 37-trace set (per-session Replay vs batched lanes on one worker
## vs EvaluateMonitor's worker split; two iterations — each op replays
## ~5.5k windows). Output lands in bench-smoke.txt for the CI artifact.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSTLOnlinePush|BenchmarkCAWTStep|BenchmarkSCSBatchPush' \
		-benchtime 1000x -benchmem ./internal/stl ./internal/monitor . > bench-smoke.txt || { cat bench-smoke.txt; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkIOBTracker|BenchmarkLabel' \
		-benchtime 1000x -benchmem ./internal/control ./internal/risk >> bench-smoke.txt || { cat bench-smoke.txt; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkAppendJSON|BenchmarkFanoutEmit' \
		-benchtime 100000x -benchmem ./internal/fleet ./internal/fleetd >> bench-smoke.txt || { cat bench-smoke.txt; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkEpochMerge' \
		-benchtime 1000x -benchmem ./internal/fleet >> bench-smoke.txt || { cat bench-smoke.txt; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkBatchPatientStep' \
		-benchtime 100x -benchmem . >> bench-smoke.txt || { cat bench-smoke.txt; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkShardedSinkEpochMerge' \
		-benchtime 10x -benchmem . >> bench-smoke.txt || { cat bench-smoke.txt; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkReplayLSTM' \
		-benchtime 2x -benchmem ./internal/experiment >> bench-smoke.txt || { cat bench-smoke.txt; exit 1; }
	@cat bench-smoke.txt

## smoke-fleetd: end-to-end control-plane smoke — start fleetd, admit a
## tenant over HTTP, read one telemetry line off its stream, and drain
## with SIGTERM (see scripts/fleetd_smoke.sh)
smoke-fleetd:
	sh scripts/fleetd_smoke.sh

## smoke-snapshot: end-to-end drain/restore smoke — start fleetd with
## -snapshot-file, admit two tenants (one naming its monitor), SIGTERM
## to an epoch-aligned drain that writes the sealed control-plane
## snapshot, restart with -restore, check both tenants and their
## telemetry streams resume without a re-PUT, and check a snapshot that
## cannot be written exits 1 (see scripts/snapshot_smoke.sh)
smoke-snapshot:
	sh scripts/snapshot_smoke.sh

## fuzz-snapshot: short fuzz pass over the snapshot codec — the sealed
## envelope opener (arbitrary bytes must error or round-trip, never
## panic) and the primitive decoder (truncation/corruption must fail
## sticky). Go allows one -fuzz pattern per invocation, so two runs.
FUZZTIME ?= 10s
fuzz-snapshot:
	$(GO) test -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime $(FUZZTIME) ./internal/snapshot

## fuzz-scenario: short fuzz pass over the scenario-program codecs —
## the canonical text parser (accepted text must re-encode and reparse
## to the identical program) and the tenant JSON wire codec (accepted
## valid programs must round-trip bit-exactly). One -fuzz pattern per
## invocation, so two runs.
fuzz-scenario:
	$(GO) test -run '^$$' -fuzz '^FuzzParseProgram$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzProgramJSON$$' -fuzztime $(FUZZTIME) ./internal/fault

## fuzz-events: short fuzz pass over the event wire encoder — the
## hand-written JSON appender (fleet.AppendJSON) must write exactly the
## bytes encoding/json writes for arbitrary events, and fail exactly
## where it fails (non-finite robustness fields).
fuzz-events:
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSON$$' -fuzztime $(FUZZTIME) ./internal/fleet

## smoke-falsify: end-to-end falsifier smoke — search the built-in
## meal+occlusion space with a small fixed-seed budget and write the
## ranked corpus. The command itself replays the hardest scenario from
## scratch and fails unless the replay reproduces the recorded minimum
## margin exactly, so a green run certifies a non-empty trustworthy
## corpus.
smoke-falsify:
	$(GO) run ./cmd/falsify -steps 60 -samples 8 -refine 2 -sweeps 1 -seed 1 -polish -out falsify-corpus.json

## vet: static checks
vet:
	$(GO) vet ./...

## fmt: fail if any file is not gofmt-formatted
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

## lint: the fleetvet multichecker — determinism, hot-path noalloc,
## enum exhaustiveness, and the doc-comment contract, over every
## package (see internal/analysis and DESIGN.md "Static invariants")
lint:
	$(GO) run ./cmd/fleetvet ./...

## docs: documentation gate — vet plus the fleetvet lint, whose doclint
## pass holds every library package to the doc-comment contract.
docs: vet lint

## ci: what a gate should run
ci: fmt vet lint test race
