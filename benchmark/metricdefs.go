package main

// The metric tables. BENCHMARK.json at the repository root lists the same
// names, units, directions and bounds; the package test holds the two in
// step. Later issues cite these names.

// e2eMetric is one end-to-end metric: what a user of the simulator sees.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
}

var e2eMetrics = []e2eMetric{
	// Host seconds inside the timed Worker.Run.
	{"wall_s", "s", "lower", 0.25},
	// Data packets handed to hosts per host second (Result.Net.Delivered /
	// wall_s): useful simulated work per host second.
	{"sim_mpkts_per_s", "Mpkt/s", "higher", 0.25},
	// Heap allocations over the timed run per operation (flow or request).
	{"allocs_per_op", "allocs", "lower", 0.20},
	// The measuring process's ru_maxrss.
	{"peak_rss_mb", "MB", "lower", 0.15},
	// Process start to start of the timed run: cold topology and fabric
	// build plus a warm-up run at a tenth of the workload.
	{"setup_s", "s", "lower", 0.25},
}

// layerMetric is one per-layer metric. Moves names the end-to-end metric
// and workload the layer number is expected to move — the interaction
// table, kept next to the definition so a later issue can cite the row.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

const (
	movesFabric   = "wall_s, sim_mpkts_per_s on dc_irn (largest) and k6_irn_lossy"
	movesSim      = "wall_s on every workload; largest share on k6_irn_lossy and kv_chaos, smallest on dc_*"
	movesCore     = "wall_s on k6_irn_lossy and dc_irn; no change on dc_roce_pfc and kv_chaos"
	movesRoce     = "wall_s on dc_roce_pfc only"
	movesKV       = "wall_s on kv_chaos only"
	movesBudget   = "budget line: predicted invisible end to end, kept so a regression is caught at the layer"
	movesSetupDC  = "setup_s on dc_*; nothing on the k=6 workloads"
	movesNone     = "no workload uses it (ledger only)"
	movesReport   = "report only"
	movesAllocsDC = "allocs_per_op on dc_*"
	movesAllocsKV = "allocs_per_op on kv_chaos"
)

// ledgerMetrics are the micro-driver metrics (ledger.go).
var ledgerMetrics = []layerMetric{
	{"sim.sched_pop_ns", "ns", "lower", movesSim},
	{"sim.timer_rearm_ns", "ns", "lower", movesSim},
	{"sim.window_barrier_ns", "ns", "lower", "wall_s on sparse phases of kv_chaos; the sharding probe"},
	{"packet.pool_roundtrip_ns", "ns", "lower", movesBudget},
	{"bitmap.inorder_ns", "ns", "lower", movesCore},
	{"bitmap.sack_scan_ns", "ns", "lower", "wall_s on k6_irn_lossy (loss recovery)"},
	{"topo.build_k16_s", "s", "lower", movesSetupDC},
	{"topo.nexthops_ns", "ns", "lower", movesSetupDC},
	{"workload.gen_ns_per_flow", "ns", "lower", movesBudget},
	{"fault.link_drop_ns", "ns", "lower", movesKV},
	{"fault.compile_s", "s", "lower", "setup_s and wall_s on kv_chaos only"},
	{"fabric.build_k16_s", "s", "lower", movesSetupDC + "; VOQ/port state moves peak_rss_mb on dc_*"},
	{"fabric.reset_k16_s", "s", "lower", "wall_s on dc_* (the timed run starts with a reset)"},
	{"fabric.hop_ns", "ns", "lower", movesFabric},
	{"fabric.hop_small_ns", "ns", "lower", movesFabric + " (control packets, tiny flows)"},
	{"fabric.hop_pfc_ns", "ns", "lower", "wall_s, sim_mpkts_per_s on dc_roce_pfc; a drop-tail shortcut shows as dc_irn up, dc_roce_pfc down"},
	{"core.pkt_ns", "ns", "lower", movesCore},
	{"core.pkt_loss_ns", "ns", "lower", "wall_s on k6_irn_lossy; no change on dc_roce_pfc and kv_chaos"},
	{"core.flow_setup_ns", "ns", "lower", "wall_s on dc_irn (mostly tiny flows)"},
	{"core.flow_setup_allocs", "allocs", "lower", movesAllocsDC + " (dc_irn)"},
	{"rocev2.pkt_ns", "ns", "lower", movesRoce},
	{"rocev2.pkt_loss_ns", "ns", "lower", movesNone + ": dc_roce_pfc is lossless"},
	{"rocev2.flow_setup_ns", "ns", "lower", movesRoce},
	{"rocev2.flow_setup_allocs", "allocs", "lower", movesAllocsDC + " (dc_roce_pfc)"},
	{"tcpstack.pkt_ns", "ns", "lower", movesNone},
	{"cc.dcqcn_send_ns", "ns", "lower", movesNone + ": no workload runs congestion control yet"},
	{"cc.dcqcn_cnp_ns", "ns", "lower", movesNone + ": no workload runs congestion control yet"},
	{"cc.timely_ack_ns", "ns", "lower", movesNone + ": no workload runs congestion control yet"},
	{"metrics.add_ns", "ns", "lower", movesBudget},
	{"metrics.merge_ns", "ns", "lower", movesBudget},
	{"metrics.quantile_ns", "ns", "lower", movesBudget},
	{"verbs.write_pkt_ns", "ns", "lower", movesKV},
	{"verbs.send_msg_ns", "ns", "lower", movesKV},
	{"verbs.send_msg_allocs", "allocs", "lower", movesAllocsKV},
	{"kv.request_ns", "ns", "lower", movesKV},
	{"kv.request_allocs", "allocs", "lower", movesAllocsKV},
	{"kv.rpc_codec_ns", "ns", "lower", movesKV},
	{"hwmodel.receive_data_ns", "ns", "lower", movesNone + "; paper Table 2"},
	{"hwmodel.tx_free_ns", "ns", "lower", movesNone + "; paper Table 2"},
	{"hwmodel.receive_ack_ns", "ns", "lower", movesNone + "; paper Table 2"},
	{"hwmodel.timeout_ns", "ns", "lower", movesNone + "; paper Table 2"},
}

// traceMetrics are what one traced run of a workload reports (tracerun.go).
// A workload without the boundary (kv_chaos owns its QPs; no workload runs
// congestion control) reports zero calls.
var traceMetrics = func() []layerMetric {
	m := []layerMetric{
		{"trace.setup.topo_s", "s", "lower", movesReport},
		{"trace.setup.fabric_s", "s", "lower", movesReport},
		{"trace.setup.workload_s", "s", "lower", movesReport},
		{"trace.run_s", "s", "lower", movesReport},
		{"trace.fold_s", "s", "lower", movesReport},
	}
	for _, b := range boundaryNames {
		m = append(m,
			layerMetric{"trace." + b + ".calls", "count", "lower", movesReport},
			layerMetric{"trace." + b + ".busy_s", "s", "lower", movesReport})
	}
	return append(m,
		layerMetric{"trace.events", "count", "lower", movesReport},
		layerMetric{"trace.pkt_hops", "count", "lower", movesReport},
		layerMetric{"trace.drops", "count", "lower", movesReport},
		layerMetric{"trace.pauses", "count", "lower", movesReport},
		layerMetric{"trace.retransmits", "count", "lower", movesReport},
		layerMetric{"trace.timeouts", "count", "lower", movesReport},
		layerMetric{"share.transport", "ratio", "lower", movesReport},
		layerMetric{"share.cc", "ratio", "lower", movesReport},
		layerMetric{"share.metrics", "ratio", "lower", movesReport},
		layerMetric{"share.fabric_sim", "ratio", "lower", movesReport},
		layerMetric{"share.sim_est", "ratio", "lower", movesReport},
		layerMetric{"trace.ns_per_event", "ns", "lower", movesReport},
		layerMetric{"trace.ns_per_pkt_hop", "ns", "lower", movesReport},
		layerMetric{"trace.overhead_ratio", "ratio", "lower", movesReport},
		layerMetric{"sim.events_per_s", "1/s", "higher", movesReport},
		layerMetric{"sim.ns_per_event", "ns", "lower", movesReport},
		layerMetric{"exp.avg_slowdown", "ratio", "lower", movesReport},
		layerMetric{"exp.p99_fct_ms", "ms", "lower", movesReport},
		layerMetric{"kv.availability", "ratio", "higher", movesReport},
		layerMetric{"kv.commit_p99_us", "us", "lower", movesReport},
	)
}()

// perLayerMetrics is every per-layer metric, in BENCHMARK.json order.
func perLayerMetrics() []layerMetric {
	return append(append([]layerMetric(nil), ledgerMetrics...), traceMetrics...)
}
