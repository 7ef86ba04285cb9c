GO ?= go

# Every go test below carries an explicit -timeout, so a hang fails in about
# two minutes, not the ten-minute default. The slowest package is
# internal/sim: ~5 s unraced, ~50 s under -race on two cores. Time spent
# fuzzing is not counted, only the seed-corpus run before it.
TEST_TIMEOUT ?= 2m
RACE_TIMEOUT ?= 3m

.PHONY: all build test race vet fmt fuzz bench bench-api check smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

# The site API over HTTP (server, retrying client, the federated store run
# over them), the simulation workers (including the stratified certification
# sampler and the screened n=10k archival-scale smoke), the campaign worker pool, the decode/adjust certification loops,
# the streaming graph construction, the serving layer (admission, the
# stripe cache's pinned, recycled payloads), the archive's
# stripe pipeline (the one place the data path starts goroutines) and its
# stream adapters, the devices (in-place overwrites, lock-free state), the load
# generator, the joint-decode federation search, the chaos/WAN injectors,
# and the federated store itself (the one federation runtime: per-site
# health under concurrent calls, RepairSite's donor hook on the stripe
# pipeline, the disaster soak) are the concurrency-heavy packages; run them
# under the race detector.
race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./internal/steward/ ./internal/sim/ ./internal/obs/ ./internal/campaign/ \
		./internal/decode/ ./internal/adjust/ ./internal/core/ ./internal/serve/ ./internal/archive/ \
		./internal/device/ ./internal/workload/ ./internal/federation/ ./internal/chaos/ ./internal/fedstore/

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any Go file in the tree (bench/ too)
# is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# fuzz gives the frame codec, the kernel differential batteries (peeling
# decoder, the stopping-set search against the scan and the reference
# peel, closed-set defect scan), the read path's two oracles (planner
# against plain reverse-delete, targeted decode against Repair), the
# campaign journal parser (arbitrary bytes through the resume path) and the
# federation's union peel (against the §5.3 exchange fixpoint) a short
# randomized shake on every check; longer sessions: make fuzz FUZZTIME=10m
FUZZTIME ?= 3s
fuzz:
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME) ./internal/archive/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzKernelMatchesReference -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzSlicedMatchesReference -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzStoppingMatchesScan -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzDefectKernelMatchesReference -fuzztime $(FUZZTIME) ./internal/defect/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzPlanMatchesReverseDelete -fuzztime $(FUZZTIME) ./internal/retrieval/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzDecodeIntoMatchesRepair -fuzztime $(FUZZTIME) ./internal/codec/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzJournalResume -fuzztime $(FUZZTIME) ./internal/campaign/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzJointDecodeMatchesExchange -fuzztime $(FUZZTIME) ./internal/federation/

# bench runs the repo benchmark, bench/: numbers only, check is the gate.
bench:
	bash bench/run.sh

# bench/ is a module of its own, so the root vet/build/test never compile
# bench/api.go — the one file a signature change in the library breaks.
# Vet it and run its smoke test (all six workloads at smoke scale).
bench-api:
	cd bench && $(GO) vet . && $(GO) test -timeout $(TEST_TIMEOUT) .

check: fmt vet build test bench-api race fuzz

# smoke runs a small end-to-end campaign under the race detector: the
# paper's search on tornado96-1 to k=6 (seconds from stopping sets; a
# campaign that slid back to the rank scan would take minutes and time the
# step out), a cache-served rerun, status — the moving parts CI should
# exercise beyond unit tests. A sampled certification on a streamed n=2000
# graph then drives the stratified sampler and its stopping rule through
# the same journaled pipeline, and a profile whose trial budget its blocks
# do not divide runs twice: the second must be served from the cache. One
# shell, so a failing step still cleans up.
smoke:
	set -e; d=$$(mktemp -d /tmp/tornado-smoke.XXXXXX); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run -race ./cmd/campaign run -dir $$d/camp -cache $$d/cache \
		-kind worstcase -graph precompiled/tornado96-1.graphml -maxk 6 -keepgoing -quiet 2>&1 | tee $$d/camp.log; \
	grep -q 'k=6: 1503 failures' $$d/camp.log; \
	$(GO) run -race ./cmd/campaign run -dir $$d/camp2 -cache $$d/cache \
		-kind worstcase -graph precompiled/tornado96-1.graphml -maxk 6 -keepgoing -quiet; \
	$(GO) run -race ./cmd/campaign status -dir $$d/camp; \
	$(GO) run -race ./cmd/campaign run -dir $$d/cert -cache $$d/cache \
		-kind sampled -seed 2006 -nodes 2000 -mink 5 -maxk 5 -epsilon 1e-3 -quiet; \
	$(GO) run -race ./cmd/campaign run -dir $$d/prof -cache $$d/cache \
		-kind profile -seed 2006 -trials 100000 -mink 4 -maxk 8 -quiet; \
	$(GO) run -race ./cmd/campaign run -dir $$d/prof2 -cache $$d/cache \
		-kind profile -seed 2006 -trials 100000 -mink 4 -maxk 8 -quiet 2>&1 | tee $$d/prof2.log; \
	grep -q 'served from cache' $$d/prof2.log

clean:
	$(GO) clean ./...
