package exp

import (
	"reflect"
	"strings"
	"testing"

	"github.com/irnsim/irn/internal/fault"
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
	// Collector footprint is O(shards) by design, the one other Result
	// field that legitimately varies with the shard count.
	r.MetricsBytes = 0
	// The shard-runtime report is all wall-clock and partitioning
	// reflections: barrier counts, per-shard window/event splits,
	// wait-time nanoseconds.
	r.ShardStats = nil
	return r
}

// TestShardDeterminismAcrossPresets pins the tentpole contract: for every
// fig* preset, running each scenario at every shard count produces
// Results — metrics, event counts, census, pool accounting, everything —
// bit-identical to the serial run. Fault presets (figloss, figflap,
// figchaos) shard like any other since the per-owner fault-event lift:
// transitions fire on the shard owning each directed link and boundary
// (agg-core) links resolve arrival faults on the consumer shard, so the
// same assertion covers flap/degrade/loss-burst transitions landing on
// cut links and on safe-window boundaries.
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
// repeating one (reset) stays bit-identical to fresh construction.
func TestShardWorkerReuse(t *testing.T) {
	seq := []Scenario{
		{Name: "s2", NumFlows: 100, Seed: 11, Shards: 2},
		{Name: "s2b", NumFlows: 100, Seed: 23, Shards: 2}, // same key: reset path
		{Name: "s4", NumFlows: 100, Seed: 11, Shards: 4},  // shard count changes the key
		{Name: "s1", NumFlows: 100, Seed: 11},             // back to serial
		{Name: "pfc2", NumFlows: 100, Seed: 7, Shards: 2, PFC: true, Transport: TransportRoCE},
		// Faults don't enter the fabric key: a faulted run must reuse the
		// fault-free fabric above (reset re-applies the model) and shard.
		{Name: "fault2", NumFlows: 100, Seed: 7, Shards: 2, PFC: true, Transport: TransportRoCE,
			Faults: fault.Spec{LossRate: 0.001}},
	}
	w := NewWorker()
	for i, s := range seq {
		fresh := Run(s)
		reused := w.Run(s)
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

// TestAdaptiveWindowsCollapseBarriers pins the adaptive safe-window
// extension's payoff at 4 shards, asserted through the shard-stats
// counters. Two regimes:
//
//   - Saturated fabrics (figscale, figdc): every shard holds events
//     inside every lookahead window, so span/lookahead barriers is the
//     conservative floor and no sound windowing can beat it by much. The
//     extension must engage (wide windows granted), never pay MORE
//     barriers than fixed windows, and leave the Result bit-identical —
//     the Done horizon pins the executed-event set regardless of window
//     boundaries.
//
//   - Sparse phases (the figkv chaos scenarios: blackouts, flaps, client
//     backoff stretches): the extension must collapse the barrier count
//     measurably — at least 10% below the fixed-window run, against the
//     19–37% observed — because a lone shard holding the next timer
//     event no longer drags every other shard through empty
//     lookahead-wide windows.
func TestAdaptiveWindowsCollapseBarriers(t *testing.T) {
	sc := shardScale()
	compare := func(t *testing.T, s Scenario) (bf, ba uint64) {
		t.Helper()
		s.Shards = 4
		rf := NewWorker().run(s, runOpts{fixedWindows: true})
		ra := Run(s)

		af, aa := stripShards(rf), stripShards(ra)
		if !reflect.DeepEqual(af, aa) {
			t.Fatalf("%s: adaptive windows changed the Result", s.Name)
		}
		if rf.ShardStats.WideWindows != 0 {
			t.Fatalf("%s: fixed run reports %d widened windows, want 0",
				s.Name, rf.ShardStats.WideWindows)
		}
		if ra.ShardStats.WideWindows == 0 {
			t.Fatalf("%s: adaptive run widened no windows", s.Name)
		}
		bf, ba = rf.ShardStats.Barriers, ra.ShardStats.Barriers
		t.Logf("%s: barriers fixed=%d adaptive=%d (%.0f%%), wide=%d",
			s.Name, bf, ba, 100*float64(ba)/float64(bf), ra.ShardStats.WideWindows)
		return bf, ba
	}

	for _, e := range []Experiment{FigureScale(sc), FigureDC(sc)} {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for _, s := range e.Scenarios {
				bf, ba := compare(t, s)
				if ba > bf {
					t.Fatalf("%s: adaptive run paid %d barriers vs fixed %d — extension made it worse",
						s.Name, ba, bf)
				}
			}
		})
	}
	t.Run("figkv", func(t *testing.T) {
		t.Parallel()
		for _, s := range FigureKV(sc).Scenarios {
			bf, ba := compare(t, s)
			if ba*10 > bf*9 {
				t.Fatalf("%s: adaptive run paid %d barriers vs fixed %d — want at least a 10%% collapse",
					s.Name, ba, bf)
			}
		}
	})
}
