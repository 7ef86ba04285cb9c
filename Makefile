GO ?= go

# Every go test below carries an explicit -timeout, so a hang fails in about
# two minutes, not the ten-minute default. The slowest package is
# internal/sim: ~20 s unraced, ~70 s under -race on two cores (the n=96
# rank-scan oracle cases and the arrival-order oracle loops skip under
# -race). Time spent fuzzing is not
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
# stream adapters, the devices (in-place overwrites, lock-free state), the
# joint-decode federation search, the chaos/WAN injectors,
# and the federated store itself (the one federation runtime: per-site
# health under concurrent calls, RepairSite's per-stripe donor on the stripe
# pipeline's workers, the joint exchange it falls back to among them, the
# disaster soak) are the concurrency-heavy packages; run them under the race
# detector. The stripe pipeline's own tests then run 1,000 times over (~7 s
# on two cores), the federation's fan-out tests (a Put and its rollback reach
# every site at once; Puts racing on one name, at most one winner) 100 times,
# RepairSite at one worker and four, with and without the exchange, 50
# times (~12 s), and sim.Job's ordered fold (units folded in plan order as
# they finish, a group ending at the fold that stops it) 200 times (~7 s),
# so a schedule-dependent flake there fails this target instead of some
# later, unrelated change.
race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./internal/steward/ ./internal/sim/ ./internal/obs/ ./internal/campaign/ \
		./internal/decode/ ./internal/defect/ ./internal/adjust/ ./internal/core/ ./internal/serve/ ./internal/archive/ \
		./internal/device/ ./internal/workload/ ./internal/federation/ ./internal/chaos/ ./internal/fedstore/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run '^TestPipe' -count=1000 ./internal/archive/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run '^TestFanOut' -count=100 ./internal/fedstore/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run '^TestRepairSite(WidthChangesNothing|ExchangeFallback)$$' -count=50 ./internal/fedstore/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -run '^Test(RunGroup|SampledStops)' -count=200 ./internal/sim/

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any Go file in the tree (bench/ too)
# is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# fuzz gives the frame codec, the kernel differential batteries (peeling
# decoder and its schedules, the stopping-set search against the scan and
# the reference peel, the arrival-order threshold against the prefix binary
# search and the reference peel at every k, the sliced 64-order thresholds
# against it, closed-set defect scan), the read path's four oracles
# (planner against plain reverse-delete, targeted decode against the
# reference sweep, a short stripe's read against the reference peel with
# its padding known, a Get under scripted read faults against the read
# that swept the stripe), the campaign journal parser (arbitrary bytes through the resume path), the
# GraphML parser (user-supplied graph files), the federation's union peel
# (against the §5.3 exchange fixpoint), the federated store's exchange (its
# Get against the union peel, links cut or not), its site repair (the residue
# RepairSite reads off its own passes against a verify-only scrub, under
# random losses, rot and dead drives) and the device (its slots, zero tails
# kept as their prefix, against a map of the frames written) a short
# randomized shake on every check; longer sessions: make fuzz FUZZTIME=10m
FUZZTIME ?= 3s
fuzz:
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME) ./internal/archive/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzShortStripeRead -fuzztime $(FUZZTIME) ./internal/archive/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzReadMatchesSweep -fuzztime $(FUZZTIME) ./internal/archive/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzKernelMatchesReference -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzSlicedMatchesReference -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzStoppingMatchesScan -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzThresholdMatchesPeel -fuzztime $(FUZZTIME) ./internal/decode/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzDefectKernelMatchesReference -fuzztime $(FUZZTIME) ./internal/defect/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzPlanMatchesReverseDelete -fuzztime $(FUZZTIME) ./internal/retrieval/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzDecodeIntoMatchesRepair -fuzztime $(FUZZTIME) ./internal/codec/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzJournalResume -fuzztime $(FUZZTIME) ./internal/campaign/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/graphml/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzJointDecodeMatchesExchange -fuzztime $(FUZZTIME) ./internal/federation/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzExchangeMatchesJoint -fuzztime $(FUZZTIME) ./internal/fedstore/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzRepairSiteResidue -fuzztime $(FUZZTIME) ./internal/fedstore/
	$(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -fuzz FuzzDeviceMatchesMap -fuzztime $(FUZZTIME) ./internal/device/

# bench runs the repo benchmark, bench/: numbers only, check is the gate.
bench:
	bash bench/run.sh

# bench-smoke runs each Go benchmark once: proof it still compiles and runs.
# Timings on shared runners are not meaningful and gate nothing; allocs/op and
# B/op (-benchmem) are printed for the loops whose allocations are budgeted.
# - Recoverable, SlicedEvalWord: the decode kernels.
# - StoppingRoot: the stopping-set search from every root of tornado96-1 at
#   k = 5, 6 and 7, the kernel under design_certify's adjust and worst-case
#   steps; options/op is the options tried (Root's budget steps): 14,447 at
#   k = 5, 32,931 when the search branched on the lowest-numbered violated
#   check and added every last-level option. n=30000/k=3 is the same search
#   over every data root of certify_scale's graph: ~65 -> ~22 ms on one
#   goroutine once the violated checks were read off a trail of the members'
#   checks instead of a Total-bit mask scanned at every step.
# - DesignPipeline: design_certify as a Go benchmark (the root package's):
#   generate the seed-2006 96-node graph, improve to k=4, exhaustive worst
#   case to k=5, a 1,000-order profile, all on one worker. Its certification
#   steps fan out through sim's block loop, which at one worker runs every
#   block on the caller and starts no goroutine.
# - ScanDataLevel96: a whole size-3 closed-set screen of a 96-node-scale data
#   level: the stopping-set enumerator with every check never erased, root by
#   root, as generation runs it at every n; allocs/op is the enumerator plus
#   the findings.
# - CertifyScale: sampled certification at n=100,000, the O(edges) path (a
#   CSR with no mask tables) at the size the dense tables made unreachable.
# - SampleBlock: one 65,536-trial block of certify_scale's sampling (n=30,000,
#   k=5, warm sampler); ns/trial fell from ~270 to ~205 on two cores (medians
#   of 5 alternating runs) once each pattern was drawn on the PCG itself,
#   screened unsorted and counted in one packed word per node.
# - GenerateStream: certify_scale's generation (seed-2006 n=30,000, screened);
#   ~31 -> ~23 ms, 6.55 -> 4.72 MB and ~100,300 -> ~1,200 allocs/op when each
#   level's adjacency was committed in one pass instead of edge by edge;
#   ~24.7 -> ~24.1 ms (faster in 6 of 10 alternating runs, inside the
#   parent's quartiles of 22.9-26.4 ms) and 4.72 -> 4.77 MB/op when the
#   closed-set screen became the stopping-set enumerator.
# - FailureProfile: the paper's Monte Carlo failure profile on tornado96-1,
#   1000 arrival orders on one worker, every sampled point read off each
#   order's threshold, 64 orders to a sliced word (design_certify's profile
#   step).
# - OrderThresholds: one arrival order's threshold on each kernel, sliced
#   (SlicedKernel.Thresholds, the profile's) and scalar (Decoder.Threshold,
#   its oracle), at n = 96, 512, 1,024 and 10,000. It re-measures where the
#   sliced word stops paying (~3x faster at 96, even at 1,024, ~4x slower at
#   10,000): read ns/order with a longer -benchtime than this smoke run's
#   one op.
# - RepairSite: site_wipe as a Go benchmark (three shipped graphs, 64 x 1 MiB,
#   site 0 wiped and rebuilt). reads/stripe is the live data blocks read at a
#   donor: the blank site reads nothing, and its residue comes from the
#   repairing pass, not a read-back (Data + Total when a verify-only scrub
#   followed). B/op fell from 260.7 MB to about 3 MB once replacement drives
#   refilled the dead drives' slabs and donor blocks landed in the pass's
#   stripe scratch.
# - FederatedPut: site_wipe's setup, 1 MiB Puts through the facade into the
#   three shipped graphs, every site written at once; ms/object fell from
#   ~8.4 to ~6.1 on two cores when the three site Puts stopped running in
#   turn (memory-bound here; over HTTP the sum of round trips becomes the max).
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
#   reads/get is the Get's device reads: 192 for a 4-stripe object, 64 for a
#   1.33-stripe one (serve_cold's shape), whose second stripe's zero padding
#   is known to the read, not fetched (96 when it was).
# - ServeColdMiss/serve_cold-parallel: serve_cold's shape at full size (4 KiB
#   blocks, 256 x 256 KiB objects over the default 8 MiB cache, GOMAXPROCS
#   clients), where the miss path's copies show: it fell from ~64 to ~49
#   us/op on two cores (medians of 6 alternating 3 s runs) when data blocks
#   began to land in the cache buffer instead of being copied there. Read
#   it with a longer -benchtime.
# - EncoderEncode: the per-stripe encode of every Put; 0 allocs/op. Full
#   data blocks are read in place in the payload, not copied into the
#   encoder's arena first: ~67 -> ~49 us per 96-node, 4 KiB-block stripe.
# - JointDecode, OverheadTrial: the benchmarks that size the Decoder's jobs
#   (one joint verdict of a 2- and a 3-site federation; one arrival order on
#   the profile's scalar oracle: a shuffle and one threshold peel, ~7-9 us at
#   n = 96 where the prefix search of ~7 large-erasure peels it replaced took
#   ~30 us).
# - PlanEconomicDegraded: a cold degraded stripe plan (tornado96, four data
#   nodes lost), the scalar decode.Kernel's one production workload; 0
#   allocs/op.
# - PlanEconomicRepeat: the same plan asked again, answered from the stored one.
# - DeviceWrite: an overwrite of a held 4100-byte frame on one device, random
#   (kept whole) and zero-tailed (kept as its checksum prefix, its tail
#   scanned); 0 allocs/op, so a zero-detection cost or an allocation that
#   creeps into the write path shows here.
# - Repair5Lost, DecodeInto4Lost: the codec executing decode's schedule on a
#   reused workspace, as scrub and RepairFrom (five blocks lost) and a
#   degraded read (four data blocks lost) run it; 0 allocs/op.
BENCH1 = $(GO) test -timeout $(TEST_TIMEOUT) -run '^$$' -benchtime 1x
bench-smoke:
	$(BENCH1) -bench Recoverable ./internal/decode/
	$(BENCH1) -bench SlicedEvalWord ./internal/decode/
	$(BENCH1) -bench StoppingRoot ./internal/decode/
	$(BENCH1) -bench DesignPipeline .
	$(BENCH1) -bench ScanDataLevel96 -benchmem ./internal/defect/
	$(BENCH1) -bench CertifyScale ./internal/sim/
	$(BENCH1) -bench SampleBlock ./internal/sim/
	$(BENCH1) -bench GenerateStream -benchmem ./internal/core/
	$(BENCH1) -bench FailureProfile ./internal/sim/
	$(BENCH1) -bench OrderThresholds -benchmem ./internal/decode/
	$(BENCH1) -bench RepairSite -benchmem ./internal/fedstore/
	$(BENCH1) -bench FederatedPut -benchmem ./internal/fedstore/
	$(BENCH1) -bench GetStreamSequential -benchmem ./internal/archive/
	$(BENCH1) -bench PutStreamSequential -benchmem ./internal/archive/
	$(BENCH1) -bench ServeColdMiss -benchmem ./internal/serve/
	$(BENCH1) -bench EncoderEncode -benchmem ./internal/codec/
	$(BENCH1) -bench JointDecode ./internal/federation/
	$(BENCH1) -bench OverheadTrial ./internal/sim/
	$(BENCH1) -bench PlanEconomicDegraded -benchmem ./internal/retrieval/
	$(BENCH1) -bench PlanEconomicRepeat -benchmem ./internal/retrieval/
	$(BENCH1) -bench 'Repair5Lost|DecodeInto4Lost' -benchmem ./internal/codec/
	$(BENCH1) -bench DeviceWrite -benchmem ./internal/device/

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
# do not divide runs twice: the first must report the seed-2006 graph's
# certified first failure, 4, which its folded worst-case search finds and
# its sampled orders miss; the second must be served from the cache. Last,
# tornadosim -summary reads the reconstruction overhead's mean, median and
# 99% point off one profile, with the worst case folded in: its first
# failure must be the certified 5, not the sample's first hit. One shell, so
# a failing step still cleans up.
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
		-kind profile -seed 2006 -trials 100000 -mink 4 -maxk 8 -quiet | tee $$d/prof.log; \
	grep -q 'first observed failure: *4 offline nodes' $$d/prof.log; \
	$(GO) run -race ./cmd/campaign run -dir $$d/prof2 -cache $$d/cache \
		-kind profile -seed 2006 -trials 100000 -mink 4 -maxk 8 -quiet 2>&1 | tee $$d/prof2.log; \
	grep -q 'served from cache' $$d/prof2.log; \
	$(GO) run -race ./cmd/tornadosim -graph precompiled/tornado96-1.graphml -trials 2000 -summary | tee $$d/sim.log; \
	grep -q 'nodes for 99% success' $$d/sim.log; \
	grep -q 'first observed failure: *5 offline nodes' $$d/sim.log

clean:
	$(GO) clean ./...
