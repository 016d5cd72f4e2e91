package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/sim"
)

// processStart anchors setup_s: taken as the first thing the process does.
var processStart = time.Now()

// runReport is what one measuring process (a "child") prints: one cold
// set-up, one timed run, and the process's peak memory.
type runReport struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ops      int    `json:"ops_attempted"`
	Failed   int    `json:"ops_failed"`
	Shards   int    `json:"shards"`

	WallS     float64 `json:"wall_s"`
	SetupS    float64 `json:"setup_s"`
	Mallocs   uint64  `json:"mallocs"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	Digest     string     `json:"sim_digest"`
	Sim        simSummary `json:"sim"`
	Violations []string   `json:"violations,omitempty"`

	// Shard-runtime counters, set on sharded runs only.
	Barriers      uint64 `json:"barriers,omitempty"`
	WideWindows   uint64 `json:"wide_windows,omitempty"`
	BarrierWaitNs int64  `json:"barrier_wait_ns,omitempty"`
}

// simSummary is the readable part of a run's simulated statistics: the
// counts the digest covers, plus the paper-facing results reported ungated.
type simSummary struct {
	Events      uint64  `json:"events"`
	Delivered   uint64  `json:"data_packets_delivered"`
	Completed   int     `json:"ops_completed"`
	Drops       uint64  `json:"drops"`
	Pauses      uint64  `json:"pause_frames"`
	Retransmits uint64  `json:"retransmits"`
	Timeouts    uint64  `json:"timeouts"`
	SimTimeMs   float64 `json:"sim_time_ms"`

	AvgSlowdown    float64 `json:"exp.avg_slowdown"`
	P99FCTMs       float64 `json:"exp.p99_fct_ms"`
	KVAvailability float64 `json:"kv.availability"`
	KVCommitP99Us  float64 `json:"kv.commit_p99_us"`
}

func summarize(o simOut) simSummary {
	s := simSummary{
		Events:      o.Events,
		Delivered:   o.Net.Delivered,
		Completed:   o.completed(),
		Drops:       o.Net.Drops,
		Pauses:      o.Net.PauseFrames,
		Retransmits: o.Retransmits,
		Timeouts:    o.Timeouts,
		SimTimeMs:   float64(o.SimTime) / float64(sim.Millisecond),
		AvgSlowdown: o.Summary.AvgSlowdown,
		P99FCTMs:    o.Summary.TailFCT.Millis(),
	}
	if o.KV != nil {
		s.KVAvailability = o.KV.Availability
		s.KVCommitP99Us = o.KV.CommitP99.Micros()
	}
	return s
}

func (r runReport) mpktsPerS() float64   { return float64(r.Sim.Delivered) / r.WallS / 1e6 }
func (r runReport) allocsPerOp() float64 { return float64(r.Mallocs) / float64(r.Ops) }

// measure is the body of a child: (1) set-up — a fresh worker runs the
// scenario at a tenth of its operations, which builds topology and fabric
// cold and warms the packet pool and the wheel; (2) the timed run — one
// Worker.Run of the full scenario on the now-cached fabric, bracketed by
// ReadMemStats; (3) the process's max RSS.
func measure(w workload, seed uint64, div, shards int) runReport {
	ops := w.Ops(seed) / div
	full := w.Scenario(seed, ops)
	warm := w.Scenario(seed, ops/setupDivisor)
	full.Shards, warm.Shards = shards, shards

	worker := exp.NewWorker()
	worker.Run(warm)
	// Collect the warm-up's garbage now, so the timed run's collector pace
	// does not depend on where the last cycle happened to end.
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	setup := time.Since(processStart)
	t0 := time.Now()
	res := worker.Run(full)
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	out := simOutOf(res)
	rep := runReport{
		Workload:   w.Name,
		Seed:       seed,
		Ops:        ops,
		Failed:     out.failed(),
		Shards:     shards,
		WallS:      wall.Seconds(),
		SetupS:     setup.Seconds(),
		Mallocs:    ms1.Mallocs - ms0.Mallocs,
		PeakRSSMB:  peakRSSMB(),
		Digest:     out.digest(),
		Sim:        summarize(out),
		Violations: out.check(w, ops),
	}
	if worker.Rebuilds() != 1 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("timed run rebuilt the fabric (%d builds): set-up did not warm it", worker.Rebuilds()))
	}
	if st := res.ShardStats; st != nil && shards > 1 {
		rep.Barriers, rep.WideWindows = st.Barriers, st.WideWindows
		for _, sh := range st.Shards {
			rep.BarrierWaitNs += sh.BarrierWaitNs
		}
	}
	return rep
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
