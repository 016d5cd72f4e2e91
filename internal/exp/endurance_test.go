package exp

import (
	"reflect"
	"testing"

	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// soakConfig is the CI-sized endurance soak: small tree, short horizon,
// few segments — the same code path as the full minutes-long soak, sized
// to run under -race in seconds.
func soakConfig() EnduranceConfig {
	return EnduranceConfig{
		Arity:    4,
		Segments: 3,
		Flows:    300,
		Horizon:  20 * sim.Millisecond,
		Cycles:   4,
		Suite:    "rolling",
		Seed:     42,
		Shards:   2,
	}
}

// TestEnduranceSoak runs the long-horizon harness end to end: every
// segment must close the conservation and pool equations (RunEndurance
// fails otherwise), the shared worker must construct its fabric exactly
// once, the soak must actually cover the simulated horizon, and the
// post-GC live heap must stay bounded across segments — the leak check.
func TestEnduranceSoak(t *testing.T) {
	cfg := soakConfig()
	rep, err := RunEndurance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) != cfg.Segments {
		t.Fatalf("got %d segments, want %d", len(rep.Segments), cfg.Segments)
	}
	if rep.Rebuilds != 1 {
		t.Errorf("worker rebuilt the fabric %d times; the zero-rebuild path must hold across segments", rep.Rebuilds)
	}
	// Arrival spans are random but concentrate tightly around the horizon
	// (300 exponentials); half the nominal total is a generous floor.
	if min := cfg.Horizon * sim.Duration(cfg.Segments) / 2; rep.SimTime < min {
		t.Errorf("soak covered %v of simulated time, want at least %v", rep.SimTime, min)
	}
	first := rep.Segments[0].HeapLive
	for i, seg := range rep.Segments {
		if seg.Census.FaultDrops == 0 && seg.Net.FaultDrops == 0 {
			t.Errorf("segment %d saw no fault drops; the chaos schedule did nothing", i)
		}
		if budget := 2*first + 64<<20; seg.HeapLive > budget {
			t.Errorf("segment %d live heap %d exceeds budget %d (first segment: %d) — memory is growing",
				i, seg.HeapLive, budget, first)
		}
		// A segment moves packets between the shards' pools and may strand
		// some at its cut-off; the reset reclaims them all, so two segments
		// size the pools for good.
		if i >= 2 && seg.PoolCap != rep.Segments[1].PoolCap {
			t.Errorf("segment %d grew the packet pools from %d to %d packets", i, rep.Segments[1].PoolCap, seg.PoolCap)
		}
	}
}

// TestEnduranceUnknownSuite pins the error path for a bad suite name.
func TestEnduranceUnknownSuite(t *testing.T) {
	cfg := soakConfig()
	cfg.Suite = "no-such-suite"
	if _, err := RunEndurance(cfg); err == nil {
		t.Fatal("want error for unknown suite")
	}
}

// TestFaultedShardedScenario is the regression test for the former
// faults-force-serial downgrade: a fault-injection scenario requesting N
// shards must actually span N shard engines, produce results bit-identical
// to serial, and land on the same store row (Fingerprint ignores Shards,
// so the sharded rerun compares against the serial baseline).
func TestFaultedShardedScenario(t *testing.T) {
	tree := topo.NewFatTree(6)
	spec := fault.NewSchedule("regression").
		At(sim.Time(100*sim.Microsecond)).
		Phase("cut", 96*sim.Microsecond, fault.Down(fault.Uplinks(0))).
		Phase("flap", 96*sim.Microsecond, fault.Blink(fault.Fabric(), 2, 8*sim.Microsecond)).
		MustCompile(tree)
	base := Scenario{Name: "faulted-sharded", NumFlows: 150, Seed: 9, Faults: spec, RoCETimeouts: true}

	serial := Run(base)
	if len(serial.ShardStats.Shards) != 1 {
		t.Fatalf("serial run spans %d shards", len(serial.ShardStats.Shards))
	}
	if serial.Census.FaultDrops == 0 {
		t.Fatal("fault schedule injected no drops; the regression scenario is inert")
	}
	for _, shards := range []int{2, 4} {
		s := base
		s.Shards = shards
		got := Run(s)
		if len(got.ShardStats.Shards) != shards {
			t.Errorf("requested %d shards, run spanned %d — faulted scenarios must shard", shards, len(got.ShardStats.Shards))
		}
		if Fingerprint(s) != Fingerprint(base) {
			t.Errorf("fingerprint at %d shards differs from serial; sharded reruns would miss the baseline row", shards)
		}
		if !reflect.DeepEqual(stripShards(got), stripShards(serial)) {
			t.Errorf("faulted run at %d shards diverged from serial", shards)
		}
	}
}
