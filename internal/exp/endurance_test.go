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
		// A segment may strand packets at its cut-off; the reset reclaims
		// them all, so two segments size the pool for good.
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

// TestFaultedShardedScenario is the regression test for the serial rule:
// a fault-injected flow scenario, and figkv's leader flap storm, asked to
// run on 2 or 4 shards run on one engine, bit-identical to serial, and
// land on the serial run's store row (Fingerprint ignores Shards).
func TestFaultedShardedScenario(t *testing.T) {
	tree := topo.NewFatTree(6)
	spec := fault.NewSchedule("regression").
		At(sim.Time(100*sim.Microsecond)).
		Phase("cut", 96*sim.Microsecond, fault.Down(fault.Uplinks(0))).
		Phase("flap", 96*sim.Microsecond, fault.Blink(fault.Fabric(), 2, 8*sim.Microsecond)).
		MustCompile(tree)
	for _, tc := range []struct {
		name string
		base Scenario
	}{
		{"flows", Scenario{Name: "faulted-sharded", NumFlows: 150, Seed: 9, Faults: spec, RoCETimeouts: true}},
		{"kv", figkvScenario(t, Scale{Flows: 40}, "IRN kv flap-leader send")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := Run(tc.base)
			if serial.Census.FaultDrops == 0 {
				t.Fatal("fault schedule injected no drops; the regression scenario is inert")
			}
			if k := serial.KV; k != nil && k.Resolved != k.Issued {
				t.Fatalf("kv run incomplete: %d/%d resolved", k.Resolved, k.Issued)
			}
			for _, shards := range []int{2, 4} {
				s := tc.base
				s.Shards = shards
				got := Run(s)
				if n := len(got.ShardStats.Shards); n != 1 {
					t.Errorf("requested %d shards, run spanned %d engines; faulted and KV runs are serial", shards, n)
				}
				if Fingerprint(s) != Fingerprint(tc.base) {
					t.Errorf("fingerprint at %d shards differs from serial; the rerun would miss the baseline row", shards)
				}
				if !reflect.DeepEqual(stripShards(got), stripShards(serial)) {
					t.Errorf("run requested at %d shards diverged from serial", shards)
				}
			}
		})
	}
}
