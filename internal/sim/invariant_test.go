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
	"testing"

	"github.com/irnsim/irn/internal/exp"
)

// invariantScale keeps the full preset sweep test-suite fast while still
// driving every code path (drops, retransmits, incast, faults).
func invariantScale() exp.Scale {
	return exp.Scale{Flows: 60, IncastBytes: 500_000, IncastReps: 1}
}

func checkConservation(t *testing.T, expID string, r exp.Result) {
	t.Helper()
	if err := r.CheckConservation(); err != nil {
		t.Errorf("%s / %v", expID, err)
	}
}

func TestPacketConservationAcrossFigurePresets(t *testing.T) {
	sc := invariantScale()
	ran := 0
	for _, e := range exp.All(sc) {
		if !strings.HasPrefix(e.ID, "fig") {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for _, s := range e.Scenarios {
				checkConservation(t, e.ID, exp.Run(s))
			}
		})
		ran++
	}
	if ran < 14 {
		t.Errorf("only %d figure presets found, want >= 14 (fig1-fig12, figloss, figflap)", ran)
	}
}

func TestPacketConservationUnderSpray(t *testing.T) {
	// Per-packet spraying reorders heavily; conservation must still hold.
	r := exp.Run(exp.Scenario{NumFlows: 80, Seed: 5, Spray: true, NackThreshold: 3})
	checkConservation(t, "spray", r)
}
