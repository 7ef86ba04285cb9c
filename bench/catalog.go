package main

// The catalogue is the benchmark's definition: which workloads exist and why,
// which metrics each one reports, the bound by which an end-to-end metric may
// worsen before it counts as a regression, and — for every per-layer metric —
// the end-to-end metric and workload it is expected to move. BENCHMARK.json
// carries the subset of this the acceptance driver reads; bench_test.go fails
// when the two drift apart.

// Workload names.
const (
	wlServeHot  = "serve_hot"
	wlServeCold = "serve_cold"
	wlLifecycle = "archive_lifecycle"
	wlSiteWipe  = "site_wipe"
	wlDesign    = "design_certify"
	wlScale     = "certify_scale"
)

type workloadDef struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	// MinRounds is the fewest measured rounds a full-scale run takes; more
	// are added until -seconds have passed. The certification workloads take
	// fewer because one design_certify round is ~4 s of single-threaded scan.
	MinRounds int
	// Clients is how many requests run at once (the closed-loop client
	// count); the layer budget divides summed request time by it.
	Clients int
	// TraceSample traces one request in this many, to keep the span log of a
	// 100 000-request round in memory and on disk.
	TraceSample int
	build       func(*env) (runner, error)
}

var workloads = []workloadDef{
	{wlServeHot, "2 closed-loop clients, Zipf(1.1) Gets over 16 x 256 KiB objects that fit the stripe cache: serve does all the work; the bypass workload for every data-path change", 5, clients, 20, buildServeHot},
	{wlServeCold, "2 closed-loop clients, uniform keys over 256 x 256 KiB objects (8x the stripe cache), 90% Get / 10% Put: cache misses drive archive, device, retrieval and codec; writes run beside reads", 5, clients, 8, buildServeCold},
	{wlLifecycle, "archive layer without serve: ingest 8 x 16 MiB, healthy restore, restore with 4 data devices failed, replace and repair-scrub: the codec used three ways at bulk MB/s", 5, 1, 4, buildLifecycle},
	{wlSiteWipe, "3-site federation of the shipped tornado96-1..3 graphs, 64 x 1 MiB objects: wipe every device of one site and time RepairSite; the only workload where fedstore does the work", 5, 1, 1, buildSiteWipe},
	{wlDesign, "paper section 3 pipeline at n=96 on one worker: generate, improve to k=4, exhaustive worst case to k=5 with the default kernel, 1000-trial profile: sim, decode, combin, adjust; no data path", 3, 1, 1, buildDesignCertify},
	{wlScale, "archival-scale certification at n=30000, k=5 on one worker: streamed generation, dense CSR build, stratified sampling to a 2e-5 Wilson half-width: the memory-heavy certify path", 3, 1, 1, buildCertifyScale},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one metric. Workloads lists where it is measured (nil
// means every workload). Bound is the share of the baseline median by which
// an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name      string
	Unit      string
	Better    string // "lower" or "higher"
	Bound     float64
	Workloads []string
	// Gate marks the end-to-end metrics every workload reports: the ones
	// BENCHMARK.json lists under end_to_end.
	Gate bool
	// Moves (per-layer metrics only) names the end-to-end metric and workload
	// a change to this number is expected to show up in.
	Moves string
}

var (
	serveWLs   = []string{wlServeHot, wlServeCold}
	repairWLs  = []string{wlLifecycle, wlSiteWipe}
	certifyWLs = []string{wlDesign, wlScale}
)

// endToEnd lists what a user of the system sees. The first four are the ones
// BENCHMARK.json gates: its driver reads every gated metric on every workload
// and refuses one that is ever 0, so only metrics that exist everywhere can be
// listed there. The rest exist only on the workloads that exercise them; every
// untraced run measures and prints them and writes them to its result file,
// and -compare judges all of them, with these bounds.
//
// Timings are reported as measured. On the shared 2-vCPU reference box the
// median of a deterministic single-threaded scan (design_certify) moved from
// 4.07 s to 3.45 s between two sets of ten runs an hour apart, and the spread
// inside a set of ten runs was 2-7% in a quiet hour and 7-12% in a busy one
// — however long the rounds, because the box drifts over minutes. The gated
// timings therefore carry the widest bound the driver allows, 0.25; the
// workload-specific metrics keep the tighter bounds they were defined with,
// and -compare answers "unresolved" whenever a result's own quartiles are
// wider than the bound. peak_rss_mb is steady to 2% except on design_certify,
// whose whole process is 10 MB and moves by 0.3-0.5 MB between runs (4.7%):
// hence 0.15, not 0.10.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "round_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Gate: true},

	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: serveWLs},
	{Name: "get_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Workloads: serveWLs},
	{Name: "get_p99_us", Unit: "us", Better: "lower", Bound: 0.15, Workloads: serveWLs},
	{Name: "put_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Workloads: []string{wlServeCold}},
	{Name: "put_p95_us", Unit: "us", Better: "lower", Bound: 0.15, Workloads: []string{wlServeCold}},
	{Name: "ingest_mbps", Unit: "MB/s", Better: "higher", Bound: 0.10, Workloads: []string{wlLifecycle}},
	{Name: "restore_mbps", Unit: "MB/s", Better: "higher", Bound: 0.10, Workloads: []string{wlLifecycle}},
	{Name: "degraded_restore_mbps", Unit: "MB/s", Better: "higher", Bound: 0.10, Workloads: []string{wlLifecycle}},
	{Name: "repair_s", Unit: "s", Better: "lower", Bound: 0.10, Workloads: repairWLs},
	{Name: "repair_bytes_per_lost_byte", Unit: "ratio", Better: "lower", Bound: 0, Workloads: repairWLs},
	{Name: "certify_s", Unit: "s", Better: "lower", Bound: 0.10, Workloads: certifyWLs},
	{Name: "patterns_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: certifyWLs},
	{Name: "profile_trials_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Workloads: []string{wlDesign}},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Bound: 0},
}

// perLayer lists the numbers the traced run produces, one module at a time.
var perLayer = []metricDef{
	{Name: "serve.get_hit_ns", Unit: "ns", Better: "lower", Moves: "get_p50_us, ops_per_s on serve_hot; must not move serve_cold"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "get_p50_us, ops_per_s on serve_hot"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Moves: "get_p50_us on serve_cold"},
	{Name: "serve.overloaded", Unit: "count", Better: "lower", Moves: "fail_share on serve_hot, serve_cold"},
	{Name: "serve.get_miss_overhead_ns", Unit: "ns", Better: "lower", Moves: "get_p50_us on serve_cold"},
	{Name: "serve.put_overhead_ns", Unit: "ns", Better: "lower", Moves: "put_p50_us on serve_cold"},

	{Name: "archive.read_stripe_healthy_us", Unit: "us", Better: "lower", Moves: "get_p50_us, get_p99_us on serve_cold; restore_mbps on archive_lifecycle; not serve_hot"},
	{Name: "archive.blocks_read_per_stripe_healthy", Unit: "count", Better: "lower", Moves: "get_p50_us on serve_cold; restore_mbps"},
	{Name: "archive.get_allocs_per_stripe", Unit: "count", Better: "lower", Moves: "get_p99_us, ops_per_s on serve_cold (through GC)"},
	{Name: "archive.get_alloc_bytes_per_stripe", Unit: "B", Better: "lower", Moves: "get_p99_us, ops_per_s on serve_cold (through GC)"},
	{Name: "archive.read_stripe_degraded_us", Unit: "us", Better: "lower", Moves: "degraded_restore_mbps on archive_lifecycle"},
	{Name: "archive.blocks_read_per_stripe_degraded", Unit: "count", Better: "lower", Moves: "degraded_restore_mbps on archive_lifecycle"},
	{Name: "archive.put_stripe_us", Unit: "us", Better: "lower", Moves: "put_p50_us on serve_cold; ingest_mbps on archive_lifecycle"},
	{Name: "archive.put_allocs_per_stripe", Unit: "count", Better: "lower", Moves: "put_p50_us on serve_cold; ingest_mbps"},
	{Name: "archive.scrub_verify_mbps", Unit: "MB/s", Better: "higher", Moves: "repair_s on archive_lifecycle"},
	{Name: "archive.scrub_repair_blocks_per_s", Unit: "1/s", Better: "higher", Moves: "repair_s on archive_lifecycle"},
	{Name: "archive.stored_bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "storage overhead: must stay 2.0 + frame overhead"},
	{Name: "archive.getstream_par_hang_share", Unit: "ratio", Better: "lower", Moves: "informational until the ROADMAP P0 deadlock is fixed"},

	{Name: "device.read_block_ns", Unit: "ns", Better: "lower", Moves: "floor under archive.read_stripe_*; serve_cold, archive_lifecycle"},
	{Name: "device.write_block_ns", Unit: "ns", Better: "lower", Moves: "floor under archive.put_stripe_us; serve_cold, archive_lifecycle"},
	{Name: "device.reads_per_get", Unit: "count", Better: "lower", Moves: "get_p50_us on serve_cold; must be 0 on serve_hot"},
	{Name: "device.read_bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "restore_mbps, degraded_restore_mbps on archive_lifecycle"},

	{Name: "codec.encode_mbps", Unit: "MB/s", Better: "higher", Moves: "ingest_mbps on archive_lifecycle; put_p50_us on serve_cold"},
	{Name: "codec.encode_allocs_per_op", Unit: "count", Better: "lower", Moves: "ingest_mbps on archive_lifecycle"},
	{Name: "codec.xor_bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "computed from graph edges x block size; codec.*_mbps is read against host.memcpy_gbps through it"},
	{Name: "codec.decode_healthy_mbps", Unit: "MB/s", Better: "higher", Moves: "restore_mbps on archive_lifecycle; get_p50_us on serve_cold"},
	{Name: "codec.decode_4lost_mbps", Unit: "MB/s", Better: "higher", Moves: "degraded_restore_mbps on archive_lifecycle"},
	{Name: "codec.repair_4lost_us", Unit: "us", Better: "lower", Moves: "repair_s on archive_lifecycle"},

	{Name: "retrieval.plan_healthy_ns", Unit: "ns", Better: "lower", Moves: "get_p50_us on serve_cold; restore_mbps"},
	{Name: "retrieval.plan_degraded_ns", Unit: "ns", Better: "lower", Moves: "degraded_restore_mbps on archive_lifecycle"},
	{Name: "retrieval.plan_surplus_blocks", Unit: "count", Better: "lower", Moves: "degraded_restore_mbps, repair_bytes_per_lost_byte on archive_lifecycle"},

	{Name: "fedstore.put_us", Unit: "us", Better: "lower", Moves: "setup_s on site_wipe"},
	{Name: "fedstore.get_failover_us", Unit: "us", Better: "lower", Moves: "read latency while a site is dark; site_wipe only"},
	{Name: "fedstore.shells_synced", Unit: "count", Better: "lower", Moves: "repair_s on site_wipe"},
	{Name: "fedstore.local_repairs", Unit: "count", Better: "higher", Moves: "repair_bytes_per_lost_byte on site_wipe"},
	{Name: "fedstore.direct_imports", Unit: "count", Better: "lower", Moves: "repair_s, repair_bytes_per_lost_byte on site_wipe"},
	{Name: "fedstore.exchanged_stripes", Unit: "count", Better: "lower", Moves: "repair_s on site_wipe"},
	{Name: "fedstore.exchange_bytes_read", Unit: "B", Better: "lower", Moves: "repair_bytes_per_lost_byte on site_wipe"},
	{Name: "fedstore.exchange_bytes_written", Unit: "B", Better: "lower", Moves: "repair_bytes_per_lost_byte on site_wipe"},

	{Name: "core.generate96_ms", Unit: "ms", Better: "lower", Moves: "certify_s on design_certify"},
	{Name: "defect.scan3_ms", Unit: "ms", Better: "lower", Moves: "certify_s on design_certify (generation screen)"},
	{Name: "adjust.improve_ms", Unit: "ms", Better: "lower", Moves: "certify_s on design_certify"},
	{Name: "adjust.rounds", Unit: "count", Better: "lower", Moves: "certify_s on design_certify"},
	{Name: "adjust.rewires", Unit: "count", Better: "lower", Moves: "certify_s on design_certify"},

	{Name: "sim.worstcase_k5_s", Unit: "s", Better: "lower", Moves: "certify_s, patterns_per_s on design_certify; must not move certify_scale"},
	{Name: "sim.scan_k5_patterns_per_s", Unit: "1/s", Better: "higher", Moves: "patterns_per_s on design_certify"},
	{Name: "sim.scan_setup_allocs", Unit: "count", Better: "lower", Moves: "patterns_per_s on design_certify (short ranges, campaign shards)"},
	{Name: "sim.scan_speedup_2w", Unit: "ratio", Better: "higher", Moves: "informational: 2 workers over 1"},

	{Name: "decode.kernel_swap_eval_ns", Unit: "ns", Better: "lower", Moves: "patterns_per_s on design_certify; profile_trials_per_s"},
	{Name: "decode.sliced_eval_word_ns", Unit: "ns", Better: "lower", Moves: "patterns_per_s on certify_scale"},
	{Name: "decode.kernel_allocs_per_op", Unit: "count", Better: "lower", Moves: "patterns_per_s on both certification workloads"},
	{Name: "combin.gray_next_ns", Unit: "ns", Better: "lower", Moves: "patterns_per_s on design_certify"},

	{Name: "core.generate_stream_ms", Unit: "ms", Better: "lower", Moves: "certify_s on certify_scale; must not move design_certify"},
	{Name: "core.closed_pairs_ms", Unit: "ms", Better: "lower", Moves: "certify_s on certify_scale"},
	{Name: "decode.new_csr_scale_ms", Unit: "ms", Better: "lower", Moves: "certify_s on certify_scale"},
	{Name: "decode.csr_scale_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb on certify_scale"},
	{Name: "sim.sample_block_ns_per_trial", Unit: "ns", Better: "lower", Moves: "patterns_per_s on certify_scale"},
	{Name: "sim.screen_rate", Unit: "ratio", Better: "higher", Moves: "patterns_per_s on certify_scale"},
	{Name: "sim.sampled_trials", Unit: "count", Better: "lower", Moves: "certify_s on certify_scale"},

	{Name: "host.memcpy_gbps", Unit: "GB/s", Better: "higher", Moves: "the bandwidth codec.*_mbps x codec.xor_bytes_per_user_byte is read against"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "traced round time over untraced, minus 1"},
	{Name: "trace.budget_residual_share", Unit: "ratio", Better: "lower", Moves: "share of the untraced round the layer spans do not account for"},
}

// appliesTo reports whether the metric is measured on workload wl.
func (m metricDef) appliesTo(wl string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == wl {
			return true
		}
	}
	return false
}

func gatedMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Gate {
			out = append(out, m)
		}
	}
	return out
}

// tracedMetrics is what a -trace run reports: every per-layer metric, plus the
// end-to-end metrics that exist only on some workloads (measured in the
// untraced rounds of the same run). BENCHMARK.json lists both under
// per_layer, the only place its schema allows a metric that is 0 somewhere.
func tracedMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.Gate {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

func findMetric(name string) *metricDef {
	for i := range endToEnd {
		if endToEnd[i].Name == name {
			return &endToEnd[i]
		}
	}
	for i := range perLayer {
		if perLayer[i].Name == name {
			return &perLayer[i]
		}
	}
	return nil
}

// sizes fixes how much work one round of each workload does. "full" is the
// benchmark; "smoke" only proves the harness runs (bench_test.go).
type sizes struct {
	HotObjects, HotGets      int
	ColdObjects, ColdOps     int
	ObjectBytes              int // serve object size
	LifecycleObjects         int
	LifecycleBytes           int
	FailedDevices            int
	WipeObjects, WipeBytes   int
	DesignImproveK, DesignK  int
	ProfileTrials            int64
	ScaleNodes               int
	ScaleEpsilon             float64
	HangProbes               int
	KernelIters, SampleBlock int
}

var scales = map[string]sizes{
	"full": {
		HotObjects: 16, HotGets: 100000,
		ColdObjects: 256, ColdOps: 4000,
		ObjectBytes:      256 << 10,
		LifecycleObjects: 8, LifecycleBytes: 16 << 20, FailedDevices: 4,
		WipeObjects: 64, WipeBytes: 1 << 20,
		DesignImproveK: 4, DesignK: 5, ProfileTrials: 1000,
		ScaleNodes: 30000, ScaleEpsilon: 2e-5,
		HangProbes: 24, KernelIters: 2000000, SampleBlock: 65536,
	},
	"smoke": {
		HotObjects: 4, HotGets: 400,
		ColdObjects: 48, ColdOps: 200,
		ObjectBytes:      256 << 10,
		LifecycleObjects: 2, LifecycleBytes: 1 << 20, FailedDevices: 4,
		WipeObjects: 4, WipeBytes: 256 << 10,
		DesignImproveK: 2, DesignK: 3, ProfileTrials: 50,
		ScaleNodes: 2000, ScaleEpsilon: 1e-3,
		HangProbes: 2, KernelIters: 20000, SampleBlock: 4096,
	},
}
