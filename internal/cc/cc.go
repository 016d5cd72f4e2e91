// Package cc implements the congestion-control schemes the paper layers
// over IRN and RoCE: DCQCN (rate-based, ECN/CNP-driven) and Timely
// (rate-based, RTT-gradient-driven) from §4.2.4, plus the window-based
// TCP-AIMD and DCTCP variants of §4.4.4 and iWARP's NewReno (§4.6).
//
// All controllers satisfy transport.Controller. Rate-based controllers
// express their decisions as per-packet pacing delays; window-based ones
// as an in-flight packet cap. Flows start at line rate in every scheme but
// iWARP's, matching §4.1: "For fair comparison with PFC-based proposals,
// the flow starts at line-rate for all cases."
//
// Each controller owns its reaction to loss. Senders report every loss —
// each recovery entry and each timeout — through OnLoss, and the
// controller decides: AIMD and DCTCP halve their window, as TCP does;
// Timely halves its rate only with TimelyConfig.LossBackoff, the §4.3
// go-back-N-with-backoff ablation; DCQCN ignores losses; NewReno reacts to
// the recovery episodes reported through transport.Recoverer instead.
//
// The published parameters are constants, not options: DCQCN's are the
// ConnectX-4-style values of Zhu et al. (SIGCOMM 2015) — g = 1/256, a
// 55 µs α timer, a 300 µs increase timer, a 10 MiB byte counter and F = 5
// fast-recovery stages — and Timely's those of Mittal et al. (SIGCOMM
// 2015): α = 0.875, β = 0.8, Tlow = 50 µs, Thigh = 500 µs and hyperactive
// increase after 5 non-positive gradients. Both floor their rate at
// 10 Mbps; the steps that scale with the line rate (DCQCN's RAI and RHAI,
// Timely's δ) are derived from it, and a configuration carries only the
// line rate, Timely's base RTT and its loss backoff.
package cc

import "github.com/irnsim/irn/internal/sim"

// minRateGbps is the floor of the rate-based controllers' rates.
const minRateGbps = 0.01

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
