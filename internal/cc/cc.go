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
	"github.com/irnsim/irn/internal/transport"
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

// CNPGenerator is the receiver half of DCQCN; see transport.CNPGenerator.
type CNPGenerator = transport.CNPGenerator

// NewCNPGenerator returns a generator with the ConnectX-4 default 50 µs
// interval (transport.CNPInterval).
func NewCNPGenerator() *CNPGenerator { return new(CNPGenerator) }
