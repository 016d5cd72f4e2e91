package sim_test

// Packet-conservation invariant harness: every figure preset runs at small
// scale and must balance the fabric census —
//
//	injected == delivered + dropped(overflow) + dropped(fault) +
//	            corrupted + in-flight-at-end
//
// — and the pool accounting: every packet ever allocated is free, inside
// the fabric, or awaiting first transmission. A census miss means a packet
// died unaccounted (low) or was counted/delivered twice (high); a pool
// miss means a leak. Double releases and double deliveries additionally
// panic inside the pool itself, so any such bug fails these runs loudly.
//
// The harness lives in package sim_test (not sim) so it can drive the
// full exp stack without an import cycle; it pins the death-site contract
// of the pooled datapath across every scenario family the presets cover —
// including the fault-injection figures, whose flaps and random losses
// exercise death sites queue overflow never reaches.

import (
	"strings"
	"sync"
	"testing"

	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
)

// invariantScale keeps the full preset sweep test-suite fast while still
// driving retransmits, incast and faults through every preset.
func invariantScale() exp.Scale {
	return exp.Scale{Flows: 60, IncastBytes: 500_000, IncastReps: 1}
}

// deathSites reaches the death sites no preset reaches at invariantScale:
// a lossy IRN fabric whose small buffers overflow (switch drop-tail) under
// a corruption overlay (the receiving port's CRC check).
func deathSites() exp.Scenario {
	return exp.Scenario{Name: "deathsites", Arity: 4, NumFlows: 60, Seed: 1,
		BufferBytes: 20_000, Faults: fault.Spec{CorruptRate: 0.001}}
}

func checkConservation(t *testing.T, expID string, r exp.Result) {
	t.Helper()
	if err := r.CheckConservation(); err != nil {
		t.Errorf("%s / %v", expID, err)
	}
}

// TestPacketConservationAcrossFigurePresets balances the census of every
// figure preset plus deathSites, and fails unless the sweep as a
// whole saw every fabric death site: a census that balances only because
// a site never fired vouches for nothing there.
func TestPacketConservationAcrossFigurePresets(t *testing.T) {
	var (
		mu     sync.Mutex
		deaths fabric.Stats
	)
	check := func(t *testing.T, id string, scenarios []exp.Scenario) {
		t.Parallel()
		for _, s := range scenarios {
			r := exp.Run(s)
			checkConservation(t, id, r)
			mu.Lock()
			deaths.Drops += r.Net.Drops
			deaths.FaultDrops += r.Net.FaultDrops
			deaths.Corrupted += r.Net.Corrupted
			mu.Unlock()
		}
	}
	// Cleanup runs once every parallel subtest has finished.
	t.Cleanup(func() {
		if deaths.Drops == 0 || deaths.FaultDrops == 0 || deaths.Corrupted == 0 {
			t.Errorf("sweep missed a death site: drops %d, fault drops %d, corrupted %d",
				deaths.Drops, deaths.FaultDrops, deaths.Corrupted)
		}
	})
	ran := 0
	for _, e := range exp.All(invariantScale()) {
		if !strings.HasPrefix(e.ID, "fig") {
			continue
		}
		t.Run(e.ID, func(t *testing.T) { check(t, e.ID, e.Scenarios) })
		ran++
	}
	t.Run("deathsites", func(t *testing.T) { check(t, "deathsites", []exp.Scenario{deathSites()}) })
	if ran < 14 {
		t.Errorf("only %d figure presets found, want >= 14 (fig1-fig12, figloss, figflap)", ran)
	}
}

func TestPacketConservationUnderSpray(t *testing.T) {
	// Per-packet spraying reorders heavily; conservation must still hold.
	r := exp.Run(exp.Scenario{NumFlows: 80, Seed: 5, Spray: true, NackThreshold: 3})
	checkConservation(t, "spray", r)
}
