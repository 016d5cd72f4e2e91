package exp

import (
	"reflect"
	"strings"
	"testing"

	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/sim"
)

// shardMatrix is the determinism matrix of the sharded engine: every
// shard count a run might use, asserted bit-identical to serial. 8 on a
// k=6 tree also exercises the partitioner's clamp-to-pods path.
var shardMatrix = []int{1, 2, 4, 8}

// shardScale keeps the full preset sweep fast while still driving drops,
// retransmissions, PFC (cross-shard pause frames), ECN marking and
// incast through the partitioned datapath.
func shardScale() Scale {
	return Scale{Flows: 40, IncastBytes: 300_000, IncastReps: 1}
}

// stripShards erases the fields allowed to differ between a sharded and
// a serial Result: the knob itself and its wall-clock reflections.
func stripShards(r Result) Result {
	r.Scenario.Shards = 0
	// The shard-runtime report is all wall-clock and partitioning
	// reflections: barrier counts, per-shard window/event splits,
	// wait-time nanoseconds.
	r.ShardStats = nil
	return r
}

// serialOnly reports whether s runs serial at any requested shard count.
func serialOnly(s Scenario) bool {
	s.Shards = 2
	return s.normalize().Shards == 1
}

// TestShardDeterminismAcrossPresets pins the tentpole contract: for every
// fig* preset, running each scenario at every shard count produces
// Results — metrics, event counts, census, pool accounting, everything —
// bit-identical to the serial run. Scenarios that normalize to one shard
// — every faulted and KV one, so all of figloss, figflap, figchaos and
// figkv — are skipped: they would only rerun serially.
//
// CI runs this under -race as well: the per-shard ownership story
// (disjoint launcher slots, partitioned stats, barrier-ordered channel
// drains) is checked by the race detector on every sharded preset run.
func TestShardDeterminismAcrossPresets(t *testing.T) {
	sc := shardScale()
	for _, e := range All(sc) {
		if !strings.HasPrefix(e.ID, "fig") {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for _, s := range e.Scenarios {
				if serialOnly(s) {
					continue
				}
				serial := stripShards(Run(s))
				for _, shards := range shardMatrix {
					if shards == 1 {
						continue
					}
					ss := s
					ss.Shards = shards
					got := stripShards(Run(ss))
					if !reflect.DeepEqual(got, serial) {
						t.Fatalf("%s at %d shards diverged from serial:\nserial:  %+v\nsharded: %+v",
							s.Name, shards, serial, got)
					}
				}
			}
		})
	}
}

// TestShardWorkerReuse: the zero-rebuild path must hold for sharded
// fabrics too — a worker alternating shard counts (rebuild) and
// repeating one (reset) stays bit-identical to fresh construction. The
// last three rows recycle receivers of every transport, and late
// duplicates reach the records of retired ones: CE-marked under DCQCN,
// with RoCE stall timers still queued under loss.
func TestShardWorkerReuse(t *testing.T) {
	seq := []Scenario{
		{Name: "s2", NumFlows: 100, Seed: 11, Shards: 2},
		{Name: "s2b", NumFlows: 100, Seed: 23, Shards: 2}, // same key: reset path
		{Name: "s4", NumFlows: 100, Seed: 11, Shards: 4},  // shard count changes the key
		{Name: "s1", NumFlows: 100, Seed: 11},             // back to serial
		{Name: "pfc2", NumFlows: 100, Seed: 7, Shards: 2, PFC: true, Transport: TransportRoCE},
		// A faulted run asking for 2 shards runs serial: its normalized
		// shard count changes the key, so it rebuilds onto one engine.
		{Name: "fault", NumFlows: 100, Seed: 7, Shards: 2, PFC: true, Transport: TransportRoCE,
			Faults: fault.Spec{LossRate: 0.001}},
		// A short RTO fires spuriously: retransmissions, CE-marked ones
		// among them, cross their flow's final ACK. RTOLowN 1 puts every
		// timer on RTOHigh, never RTO_low.
		{Name: "dcqcn2", NumFlows: 300, Seed: 5, Shards: 2, CC: CCDCQCN,
			RTOHigh: 20 * sim.Microsecond, RTOLowN: 1},
		{Name: "roce-lossy", NumFlows: 300, Seed: 5, Shards: 2, Transport: TransportRoCE,
			Faults: fault.Spec{LossRate: 0.001}}, // serial by rule
		{Name: "tcp2", NumFlows: 300, Seed: 15, Shards: 2, Transport: TransportTCP},
	}
	late := map[string]bool{"dcqcn2": true, "roce-lossy": true, "tcp2": true}
	w := NewWorker()
	for i, s := range seq {
		fresh := Run(s)
		reused := w.Run(s)
		if late[s.Name] && w.net.LateDuplicates() == 0 {
			t.Fatalf("step %d (%s): no late duplicate reached a retired receiver's record", i, s.Name)
		}
		// Barrier wait times are wall-clock; every other shard-runtime
		// counter (barriers, windows, events, drains) must reproduce.
		for _, r := range []*Result{&fresh, &reused} {
			for k := range r.ShardStats.Shards {
				r.ShardStats.Shards[k].BarrierWaitNs = 0
			}
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("step %d (%s): sharded worker reuse diverged from fresh run", i, s.Name)
		}
	}
}

// TestFleetShardArbitration pins the CPU arbitration rule: workers ×
// shards never exceeds GOMAXPROCS, and the capped fleet still returns
// bit-identical results.
func TestFleetShardArbitration(t *testing.T) {
	mk := func(name string, shards int) Scenario {
		return Scenario{Name: name, NumFlows: 80, Seed: 5, Shards: shards}
	}
	e := Experiment{ID: "arb", Scenarios: []Scenario{mk("a", 4), mk("b", 4)}}
	wide := RunFleet(e, FleetConfig{Parallel: 64})
	serial := RunFleet(e, FleetConfig{Parallel: 1})
	for _, fr := range []*FleetResult{&wide, &serial} {
		for _, trials := range fr.Trials {
			for i := range trials {
				// Wall-clock; the sibling counters stay in the compare.
				for k := range trials[i].ShardStats.Shards {
					trials[i].ShardStats.Shards[k].BarrierWaitNs = 0
				}
			}
		}
	}
	if !reflect.DeepEqual(wide.Trials, serial.Trials) {
		t.Fatal("capped fleet diverged from serial fleet")
	}
}
