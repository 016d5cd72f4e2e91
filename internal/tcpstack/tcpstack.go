// Package tcpstack models the iWARP approach (§2.3, §4.6): the full TCP
// loss-recovery and congestion-control machinery implemented in the NIC.
// IRN is TCP's SACK recovery stripped of slow start, AIMD, duplicate-ACK
// fast retransmit and a dynamic RTO, so an iWARP flow runs IRN's
// transport with those parts put back: core.Sender under
// core.RecoveryTCP, with the RFC 6298 timer of core.Params.DynamicRTO and
// a cc.NewReno window, and core.Receiver with the socket buffer, Window,
// as its reassembly window. The receiver's NACKs carry what TCP's
// duplicate ACKs do, the cumulative ACK and the segment that triggered
// it, and the sender reads them as such. Unlike a TCP receiver it NACKs a
// segment beyond its window instead of dropping it; only a flow of more
// than Window segments (65.5 MB at a 1 KB MTU) can send one, and the
// sender's scoreboard ignores that SACK.
//
// The constants are a conventional datacenter TCP's: an initial window of
// 4 segments, a duplicate-ACK threshold of 3, and an RTO floored at 1 ms,
// 3 ms before the first RTT sample, capped at 12 ms.
//
// Segments are modelled at MTU granularity (one PSN = one segment). The
// byte-stream reassembly and the RDMA-message translation layers that make
// real iWARP NICs expensive are modelled in the verbs package; here we
// reproduce the transport dynamics the paper's Figure 11 measures, where
// the difference from IRN is the congestion machinery — most visibly slow
// start, which costs iWARP 21% in average slowdown.
package tcpstack

import (
	"github.com/irnsim/irn/internal/cc"
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// Window is the socket buffer in segments: the reach of the sender's SACK
// scoreboard and of the receiver's reassembly window.
const Window = 1 << 16

// Params configures both halves of an iWARP flow.
type Params = core.Params

// DefaultParams returns iWARP's configuration: TCP's recovery and timer,
// the socket buffer as the in-flight cap.
func DefaultParams(mtu int) Params {
	return Params{
		MTU:           mtu,
		BDPCap:        Window,
		Recovery:      core.RecoveryTCP,
		RTOLow:        1 * sim.Millisecond,
		RTOHigh:       3 * sim.Millisecond,
		DynamicRTO:    true,
		NackThreshold: 3,
	}
}

// NewSender builds the sender of an iWARP flow: core.Sender under a
// NewReno window.
func NewSender(ep transport.Endpoint, flow *transport.Flow, p Params) *core.Sender {
	return core.NewSender(ep, flow, p, cc.NewNewReno())
}

// NewReceiver builds the receiver of an iWARP flow (see the package doc).
func NewReceiver(ep transport.Endpoint, flow *transport.Flow, p Params, done transport.Completer) *core.Receiver {
	return core.NewReceiver(ep, flow, p, done)
}
