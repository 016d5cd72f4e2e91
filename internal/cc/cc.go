// Package cc implements the congestion-control schemes the paper layers
// over IRN and RoCE: DCQCN (rate-based, ECN/CNP-driven) and Timely
// (rate-based, RTT-gradient-driven) from §4.2.4, plus the window-based
// TCP-AIMD and DCTCP variants of §4.4.4.
//
// All controllers satisfy transport.Controller. Rate-based controllers
// express their decisions as per-packet pacing delays; window-based ones
// as an in-flight packet cap. Flows start at line rate in every scheme,
// matching §4.1: "For fair comparison with PFC-based proposals, the flow
// starts at line-rate for all cases."
package cc

import (
	"github.com/irnsim/irn/internal/sim"
)

// rateToDelay converts a rate in Gbps to the pacing delay for wire bytes.
func rateToDelay(wire int, gbps float64) sim.Duration {
	if gbps <= 0 {
		return sim.Duration(1<<62 - 1)
	}
	return sim.Duration(float64(wire) * 8000.0 / gbps) // ps
}

// clamp bounds a rate to [min, max] Gbps.
func clamp(r, min, max float64) float64 {
	if r < min {
		return min
	}
	if r > max {
		return max
	}
	return r
}

// CNPGenerator implements the receiver half of DCQCN: when CE-marked data
// packets arrive, it emits at most one congestion notification packet per
// flow per MinInterval (50 µs on ConnectX-4).
type CNPGenerator struct {
	MinInterval sim.Duration
	last        sim.Time
	armed       bool
}

// NewCNPGenerator returns a generator with the ConnectX-4 default 50 µs
// interval.
func NewCNPGenerator() *CNPGenerator {
	g := new(CNPGenerator)
	g.Init()
	return g
}

// Init is NewCNPGenerator in place, for a generator embedded by value.
func (g *CNPGenerator) Init() { *g = CNPGenerator{MinInterval: 50 * sim.Microsecond} }

// OnMarked reports whether a CNP should be sent for a CE-marked arrival
// at time now.
func (g *CNPGenerator) OnMarked(now sim.Time) bool {
	if g.armed && now.Sub(g.last) < g.MinInterval {
		return false
	}
	g.last = now
	g.armed = true
	return true
}
