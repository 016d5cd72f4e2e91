package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// traceReport is the outcome of one traced run of a workload.
type traceReport struct {
	// Metrics holds every traceMetrics name.
	Metrics map[string]float64
	// DigestMatch reports whether the probe launcher reproduced the
	// public entry point's sim_digest bit for bit (stronger than the
	// packet/flow/event checks, and reported rather than required).
	DigestMatch bool
	SpanFile    string
	Spans       int
	Violations  []string
}

// traceRun runs w once through the probe launcher with the timing
// decorators on, after a bare warm-up at a tenth of the size on the same
// fabric (the traced counterpart of measure's set-up), and derives the
// per-layer trace metrics. ref is an untraced run of the same workload,
// seed and size through exp.Worker.Run: the traced run must reproduce its
// packet and flow counts, and its wall_s is the base of the overhead
// ratio. schedPopNs is the ledger's sim.sched_pop_ns, for share.sim_est.
func traceRun(w workload, ref runReport, div int, schedPopNs float64, outDir string) (traceReport, error) {
	ops := w.Ops(ref.Seed) / div
	tr := newTracer()
	p, topoS, fabricS, err := newProbe(w.Scenario(ref.Seed, ops), tr)
	if err != nil {
		return traceReport{}, err
	}
	if _, _, err := p.run(w.Scenario(ref.Seed, ops/setupDivisor), false, "warmup."); err != nil {
		return traceReport{}, err
	}
	out, ph, err := p.run(w.Scenario(ref.Seed, ops), true, "")
	if err != nil {
		return traceReport{}, err
	}

	rep := traceReport{DigestMatch: out.digest() == ref.Digest, Spans: len(tr.spans)}
	rep.Violations = out.check(w, ops)
	got := summarize(out)
	if got.Delivered != ref.Sim.Delivered {
		rep.Violations = append(rep.Violations, fmt.Sprintf("traced run delivered %d data packets, untraced %d", got.Delivered, ref.Sim.Delivered))
	}
	if got.Completed != ref.Sim.Completed {
		rep.Violations = append(rep.Violations, fmt.Sprintf("traced run completed %d operations, untraced %d", got.Completed, ref.Sim.Completed))
	}
	if d := math.Abs(float64(got.Events) - float64(ref.Sim.Events)); d > 0.001*float64(ref.Sim.Events) {
		rep.Violations = append(rep.Violations, fmt.Sprintf("traced run executed %d events, untraced %d (more than 0.1%% apart)", got.Events, ref.Sim.Events))
	}

	m := map[string]float64{
		"trace.setup.topo_s":     topoS,
		"trace.setup.fabric_s":   fabricS,
		"trace.setup.workload_s": ph.WorkloadS,
		"trace.run_s":            ph.RunS,
		"trace.fold_s":           ph.FoldS,
		"trace.events":           float64(got.Events),
		"trace.pkt_hops":         float64(tr.pktHops),
		"trace.drops":            float64(got.Drops),
		"trace.pauses":           float64(got.Pauses),
		"trace.retransmits":      float64(got.Retransmits),
		"trace.timeouts":         float64(got.Timeouts),
		"trace.ns_per_event":     ph.RunS * 1e9 / float64(got.Events),
		"trace.overhead_ratio":   ph.RunS / ref.WallS,
		"share.sim_est":          float64(got.Events) * schedPopNs / (ph.RunS * 1e9),
		"sim.events_per_s":       float64(ref.Sim.Events) / ref.WallS,
		"sim.ns_per_event":       ref.WallS * 1e9 / float64(ref.Sim.Events),
		"exp.avg_slowdown":       ref.Sim.AvgSlowdown,
		"exp.p99_fct_ms":         ref.Sim.P99FCTMs,
		"kv.availability":        ref.Sim.KVAvailability,
		"kv.commit_p99_us":       ref.Sim.KVCommitP99Us,
	}
	m["trace.ns_per_pkt_hop"] = 0 // kv_chaos: no sinks of the probe's own
	if tr.pktHops > 0 {
		m["trace.ns_per_pkt_hop"] = ph.RunS * 1e9 / float64(tr.pktHops)
	}
	var busy [numBoundaries]float64
	for b, name := range boundaryNames {
		busy[b] = float64(tr.busy[b]) / 1e9
		m["trace."+name+".calls"] = float64(tr.calls[b])
		m["trace."+name+".busy_s"] = busy[b]
	}
	// Self times partition the run span, so the four shares sum to one.
	transport := busy[bHasData] + busy[bNextPacket] + busy[bHandleData] + busy[bHandleControl]
	m["share.transport"] = transport / ph.RunS
	m["share.cc"] = busy[bCC] / ph.RunS
	m["share.metrics"] = busy[bMetricsAdd] / ph.RunS
	m["share.fabric_sim"] = (ph.RunS - transport - busy[bCC] - busy[bMetricsAdd]) / ph.RunS
	rep.Metrics = m

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return rep, fmt.Errorf("trace output directory: %w", err)
	}
	rep.SpanFile = filepath.Join(outDir, "trace-"+w.Name+".jsonl")
	if err := tr.writeSpans(rep.SpanFile); err != nil {
		return rep, err
	}
	return rep, nil
}
