GO ?= go

# Every go test below carries an explicit -timeout, so a hang fails in about
# two minutes, not the ten-minute default. The slowest package is
# internal/sim: 14–17 s unraced, ~47 s under -race on two cores (the n=96
# rank-scan oracle cases skip under -race). Time spent fuzzing is not
# counted, only the seed-corpus run before it.
TEST_TIMEOUT ?= 2m
RACE_TIMEOUT ?= 3m

.PHONY: all build test race vet fmt fuzz bench bench-smoke bench-api check smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

# The site API over HTTP (server, retrying client, the federated store run
# over them), the simulation workers (including the stratified certification
# sampler and the screened n=10k archival-scale smoke), the campaign worker pool, the decode/adjust certification loops,
# the closed-set screen's root-range workers, the streaming graph construction, the serving layer (admission, the
# stripe cache's pinned, recycled payloads), the archive's
# stripe pipeline (the one place the data path starts goroutines) and its
# stream adapters, the devices (in-place overwrites, lock-free state), the load
# generator, the joint-decode federation search, the chaos/WAN injectors,
# and the federated store itself (the one federation runtime: per-site
# health under concurrent calls, RepairSite's donor hook on the stripe
# pipeline, the disaster soak) are the concurrency-heavy packages; run them
# under the race detector. The stripe pipeline's own tests then run 1,000
# times over (~7 s on two cores), so a schedule-dependent flake there fails
# this target instead of some later, unrelated change.
race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./internal/steward/ ./internal/sim/ ./internal/obs/ ./internal/campaign/ \
		./internal/decode/ ./internal/defect/ ./internal/adjust/ ./internal/core/ ./internal/serve/ ./internal/archive/ \
		./internal/device/ ./internal/workload/ ./internal/federation/ ./internal/chaos/ ./internal/fedstore/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run '^TestPipe' -count=1000 ./internal/archive/

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
# campaign journal parser (arbitrary bytes through the resume path), the
# GraphML parser (user-supplied graph files) and the federation's union peel
# (against the §5.3 exchange fixpoint) a short randomized shake on every
# check; longer sessions: make fuzz FUZZTIME=10m
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
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/graphml/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzJointDecodeMatchesExchange -fuzztime $(FUZZTIME) ./internal/federation/

# bench runs the repo benchmark, bench/: numbers only, check is the gate.
bench:
	bash bench/run.sh

# bench-smoke runs each Go benchmark once: proof it still compiles and runs.
# Timings on shared runners are not meaningful and gate nothing; allocs/op and
# B/op (-benchmem) are printed for the loops whose allocations are budgeted.
# - Recoverable, SlicedEvalWord: the decode kernels.
# - ScanDataLevel96: a whole size-3 closed-set screen of a 96-node-scale data
#   level, the root-by-root search generation runs at every n; allocs/op is
#   the search state plus the findings.
# - CertifyScale: sampled certification at n=100,000, the O(edges) path (a
#   CSR with no mask tables) at the size the dense tables made unreachable.
# - FailureProfile: the paper's Monte Carlo failure profile on tornado96-1,
#   1000 trials a point on one worker (design_certify's profile step).
# - RepairSite: site_wipe as a Go benchmark (three shipped graphs, 64 x 1 MiB,
#   site 0 wiped and rebuilt). reads/stripe is Data + Total when no block is
#   read twice; B/op fell from 260.7 MB to about 3 MB once replacement drives
#   refilled the dead drives' slabs and donor blocks landed in the pass's
#   stripe scratch.
# - GetStreamSequential, PutStreamSequential: the read and the write stripe
#   loop (a one-shot 64-stripe GetStream is ~50 allocations, its scratch built
#   cold, when frames land in the scratch arena; over 3,000 when the backend
#   drops to the Read adapter).
# - GetStreamSequential/degraded: the read loop with four data devices failed.
#   probes/stripe is its Available calls: 0 healthy, 4 degraded (one per
#   failed device), where every stripe once probed all 96 nodes.
# - ServeColdMiss: a cold serve Get whose stripes all miss the cache; each
#   decodes into a payload buffer the cache recycled, so allocs/op is the
#   request's and the cache entries' bookkeeping, not a stripe per miss.
# - JointDecode, OverheadTrial: the benchmarks that size the Decoder's jobs
#   (one joint verdict of a 2- and a 3-site federation; one overhead trial, a
#   prefix search of ~7 large-erasure peels).
# - PlanEconomicDegraded: a cold degraded stripe plan (tornado96, four data
#   nodes lost), the scalar decode.Kernel's one production workload; 0
#   allocs/op.
# - PlanEconomicRepeat: the same plan asked again, answered from the stored one.
BENCH1 = $(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -benchtime 1x
bench-smoke:
	$(BENCH1) -bench Recoverable ./internal/decode/
	$(BENCH1) -bench SlicedEvalWord ./internal/decode/
	$(BENCH1) -bench ScanDataLevel96 -benchmem ./internal/defect/
	$(BENCH1) -bench CertifyScale ./internal/sim/
	$(BENCH1) -bench FailureProfile ./internal/sim/
	$(BENCH1) -bench RepairSite -benchmem ./internal/fedstore/
	$(BENCH1) -bench GetStreamSequential -benchmem ./internal/archive/
	$(BENCH1) -bench PutStreamSequential -benchmem ./internal/archive/
	$(BENCH1) -bench ServeColdMiss -benchmem ./internal/serve/
	$(BENCH1) -bench JointDecode ./internal/federation/
	$(BENCH1) -bench OverheadTrial ./internal/sim/
	$(BENCH1) -bench PlanEconomicDegraded -benchmem ./internal/retrieval/
	$(BENCH1) -bench PlanEconomicRepeat -benchmem ./internal/retrieval/

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
