package main

// metricDef is one reported metric. Moves and On apply to per-layer
// metrics: the end-to-end metrics the layer metric should move, and the
// workloads on which it should move them (the prediction elsewhere is no
// change).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  []string
	On     []string
}

const (
	mix4Full     = "mix4-full"
	suiteSampled = "suite-sampled"
	wideShared   = "wide-shared"
)

var allWorkloads = []string{mix4Full, suiteSampled, wideShared}

// endToEnd are the metrics a user of the simulator sees, reported by every
// workload with tracing off. Host time throughout.
var endToEnd = []metricDef{
	// Median wall time of one repetition of the workload's batch job.
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median set-up time (see each workload's setup).
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median user+system CPU time of one repetition.
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Peak resident memory during the first repetition.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is the ledger of the traced pass, named after the modules.
var perLayer = []metricDef{
	{Name: "harness.sims", Unit: "count", Better: "lower", Moves: []string{"wall_s", "cpu_s"}, On: []string{suiteSampled, wideShared}},
	{Name: "harness.pool_util", Unit: "ratio", Better: "higher", Moves: []string{"wall_s", "cpu_s"}, On: []string{suiteSampled, wideShared}},

	{Name: "workload.synth_refs_per_s", Unit: "1/s", Better: "higher", Moves: []string{"setup_s"}, On: allWorkloads},
	{Name: "workload.build_s", Unit: "s", Better: "lower", Moves: []string{"setup_s"}, On: allWorkloads},

	{Name: "trace.pack_refs_per_s", Unit: "1/s", Better: "higher", Moves: []string{"setup_s"}, On: allWorkloads},
	{Name: "trace.replay_refs_per_s", Unit: "1/s", Better: "higher", Moves: []string{"wall_s"}, On: []string{mix4Full}},
	{Name: "trace.filter_refs_per_s", Unit: "1/s", Better: "higher", Moves: []string{"wall_s"}, On: []string{suiteSampled}},
	{Name: "trace.refs_replayed", Unit: "count", Better: "lower", Moves: []string{"wall_s"}, On: allWorkloads},

	{Name: "store.save_s", Unit: "s", Better: "lower", Moves: []string{"setup_s"}, On: []string{suiteSampled, wideShared}},
	{Name: "store.save_mb_per_s", Unit: "MB/s", Better: "higher", Moves: []string{"setup_s"}, On: []string{suiteSampled, wideShared}},
	{Name: "store.load_s", Unit: "s", Better: "lower", Moves: []string{"wall_s"}, On: []string{suiteSampled, wideShared}},
	{Name: "store.load_refs_per_s", Unit: "1/s", Better: "higher", Moves: []string{"wall_s"}, On: []string{suiteSampled, wideShared}},
	{Name: "store.bytes", Unit: "B", Better: "lower", Moves: []string{"setup_s", "peak_rss_mb"}, On: []string{suiteSampled, wideShared}},
	{Name: "store.corrupt", Unit: "count", Better: "lower", Moves: []string{"wall_s"}, On: []string{suiteSampled, wideShared}},

	{Name: "cachesim.burst_ns_per_ref", Unit: "ns", Better: "lower", Moves: []string{"wall_s"}, On: []string{mix4Full}},
	{Name: "cachesim.l2_access_ns", Unit: "ns", Better: "lower", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},
	{Name: "cachesim.probe_ns", Unit: "ns", Better: "lower", Moves: []string{"wall_s"}, On: []string{wideShared}},
	{Name: "cachesim.l1_hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{"wall_s"}, On: []string{mix4Full}},

	{Name: "cmp.run_s", Unit: "s", Better: "lower", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},
	{Name: "cmp.instr_per_s", Unit: "1/s", Better: "higher", Moves: []string{"wall_s"}, On: []string{mix4Full}},
	{Name: "cmp.ns_per_l2_access", Unit: "ns", Better: "lower", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},
	{Name: "cmp.l2_local_hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},
	{Name: "cmp.remote_hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},
	{Name: "cmp.probes_per_kinstr", Unit: "1/kinstr", Better: "lower", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},
	{Name: "cmp.spills_per_kinstr", Unit: "1/kinstr", Better: "lower", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},
	{Name: "cmp.sample_cpi_err_pct", Unit: "%", Better: "lower", Moves: []string{"wall_s"}, On: []string{suiteSampled}},

	{Name: "policies.hook_ns", Unit: "ns", Better: "lower", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},
	{Name: "policies.hook_calls_per_kinstr", Unit: "1/kinstr", Better: "lower", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},
	{Name: "policies.spill_accept_ratio", Unit: "ratio", Better: "higher", Moves: []string{"wall_s"}, On: []string{mix4Full, wideShared}},

	{Name: "mem.queue_cycles_per_access", Unit: "cycles", Better: "lower", Moves: []string{"wall_s"}, On: []string{wideShared}},
	{Name: "mem.offchip_per_kinstr", Unit: "1/kinstr", Better: "lower", Moves: []string{"wall_s"}, On: []string{wideShared}},
}
