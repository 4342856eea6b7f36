GO ?= go

.PHONY: build vet test test-race fuzz-smoke bench bench-json alloc-gate obs-smoke serve-smoke pop-smoke grid-smoke conform golden cover check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Short passes of every fuzzer (trace ingest, the sample wire codec, grid
# configs, serve request decoding, phy.Pow10 against math.Pow, the short
# build's segment rule); CI-sized. CI runs this target, so a new fuzzer is
# listed here only.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReadJSON -fuzztime=20s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzReadCSV -fuzztime=20s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzCCJSON -fuzztime=20s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzGridConfig -fuzztime=20s ./internal/grid/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRequest -fuzztime=20s ./internal/serve/
	$(GO) test -run=^$$ -fuzz=FuzzPow10 -fuzztime=20s ./internal/phy/
	$(GO) test -run=^$$ -fuzz=FuzzCutSegment -fuzztime=20s ./internal/sim/

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Headline benchmarks (parallel build, Table 4 fan-out, training loop,
# window extraction, ingest repair) rendered as BENCH_obs.json for machine
# comparison. BENCHTIME/COUNT env vars control stability vs speed.
bench-json:
	./scripts/benchjson.sh

# Allocation-regression gate: re-measure the two hot-path benchmarks and
# fail if allocs/op regressed >20% against the checked-in BENCH_obs.json.
alloc-gate:
	./scripts/allocgate.sh

# Telemetry smoke: a quick instrumented run must produce a parseable
# metrics snapshot covering the sim, par, trace and train stages; then a
# live prismserve must trace every request (X-Prism-Trace), expose a
# valid OpenMetrics /metrics with trace-ID exemplars, and its journal
# must answer prismobs blame/slo.
obs-smoke:
	$(GO) run ./cmd/prismeval -quick -only runtime -metrics obs_metrics.json -journal obs_journal.jsonl
	./scripts/obssmoke.sh obs_metrics.json

# End-to-end serving smoke: prismserve under a deliberately undersized
# queue must shed with 429s (never drop a request), survive one seeded
# chaos pass (slow-loris, malformed payloads, disconnects, bursts) and
# drain cleanly on SIGTERM.
serve-smoke:
	./scripts/servesmoke.sh

# Population-mode smoke: a jsonl-spilled build must emit one trace per
# UE, be byte-identical at any worker count, and prismeval's population
# entry (the streaming pipeline) must run end to end.
pop-smoke:
	./scripts/popsmoke.sh

# Scenario-grid smoke: a tiny 2x2 grid runs, is interrupted with the
# deterministic abort hook, resumes, and the merged output must be
# byte-identical to an uninterrupted run (and to a -workers 4 run).
grid-smoke:
	./scripts/gridsmoke.sh

# Paper-conformance suite: goldens + statistical invariants + metamorphic
# laws. Exits nonzero on any violation.
conform:
	$(GO) run ./cmd/prismconform

# Regenerate the committed golden fixtures (run after an intentional
# simulator or experiment change, then review the diff).
golden:
	$(GO) test ./internal/conform/ -run TestGoldens -update
	$(GO) test ./internal/conform/

# Coverage with per-package summary and a soft gate on the packages the
# conformance harness leans on. coverage.out / coverage.txt are the CI
# artifacts.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./... | tee coverage.txt
	./scripts/covergate.sh coverage.txt

check: build vet test test-race fuzz-smoke conform
