// Package core implements IRN, the paper's primary contribution (§3): a
// RoCE NIC transport with (1) efficient, SACK-based selective-retransmit
// loss recovery and (2) BDP-FC, a static end-to-end cap on in-flight
// packets equal to the bandwidth-delay product of the network — the two
// incremental changes that together eliminate the need for PFC.
//
// The package also implements the design-space ablations of §4.3 (pure
// go-back-N, selective retransmit without SACKs, dynamically computed
// timeouts), the reordering-robustness NACK threshold sketched in §7, and
// the worst-case implementation overheads of §6.3 (retransmission fetch
// delay, per-packet header growth), each behind a Params knob so the
// experiment harness can reproduce the corresponding figures.
//
// The sender reports every loss — each recovery entry and each timeout —
// to its congestion controller through OnLoss, and the controller alone
// decides whether to back off: §4.3's go-back-N with loss backoff is
// go-back-N recovery under a controller that backs off on loss (Timely
// with cc.TimelyConfig.LossBackoff), not a knob of this package.
package core

import (
	"github.com/irnsim/irn/internal/sim"
)

// RecoveryMode selects the loss-recovery algorithm.
type RecoveryMode uint8

// Recovery modes.
const (
	// RecoverySACK is IRN's default: receiver keeps out-of-order packets
	// and NACKs carry (cumulative ack, triggering PSN); the sender
	// selectively retransmits using a bitmap (§3.1).
	RecoverySACK RecoveryMode = iota
	// RecoveryGoBackN rewinds the sender to the cumulative ack on every
	// NACK and timeout, ignoring the SACK — the loss recovery of current
	// RoCE NICs, used for the Figure 7 ablation. Only the sender changes:
	// the receiver still keeps out-of-order packets, so a cumulative ack
	// that overtakes a rewind moves the sender past what was already
	// delivered.
	RecoveryGoBackN
	// RecoveryNoSACK is selective retransmission without the SACK
	// bitmap: only the packet at the cumulative ack is ever
	// retransmitted, so each additional loss in a window costs a round
	// trip (§4.3 question 2).
	RecoveryNoSACK
)

// String implements fmt.Stringer.
func (m RecoveryMode) String() string {
	switch m {
	case RecoverySACK:
		return "sack"
	case RecoveryGoBackN:
		return "go-back-n"
	case RecoveryNoSACK:
		return "no-sack"
	default:
		return "unknown"
	}
}

// Params configures an IRN sender/receiver pair.
type Params struct {
	// MTU is the payload bytes per packet.
	MTU int
	// BDPCap bounds packets in flight (BDP-FC, §3.2). Zero disables the
	// cap (the Figure 7 "IRN without BDP-FC" ablation).
	BDPCap int
	// Recovery selects the loss-recovery algorithm.
	Recovery RecoveryMode
	// RTOLow is the short timeout used when fewer than RTOLowThreshold
	// packets are in flight (100 µs default, §4.1).
	RTOLow sim.Duration
	// RTOHigh is the standard timeout (320 µs default: longest-path
	// propagation plus the worst-case queuing of one full buffer, §4.1).
	RTOHigh sim.Duration
	// RTOLowThreshold is N: use RTOLow when in-flight < N (default 3).
	RTOLowThreshold int
	// DynamicRTO replaces the two static timeouts with a TCP-style
	// SRTT + 4·RTTVAR estimate (§4.3 question 3).
	DynamicRTO bool
	// NackThreshold is how many NACKs must arrive before loss recovery
	// engages; values above 1 tolerate reordering from packet-spraying
	// load balancers (§7). Default 1.
	NackThreshold int
	// RetxFetchDelay models the worst-case PCIe fetch of a
	// retransmission: a retransmitted packet may leave no earlier than
	// this long after it was identified as lost (2 µs in §6.3).
	RetxFetchDelay sim.Duration
	// ExtraHeaderBytes grows every data packet, modelling IRN's header
	// extensions (worst case: 16 B of RETH on every packet, §6.3).
	ExtraHeaderBytes int
	// ECT marks data packets ECN-capable; enable with DCQCN or DCTCP.
	ECT bool
}

// DefaultParams returns the paper's IRN configuration for a given BDP cap.
func DefaultParams(mtu, bdpCap int) Params {
	return Params{
		MTU:             mtu,
		BDPCap:          bdpCap,
		Recovery:        RecoverySACK,
		RTOLow:          100 * sim.Microsecond,
		RTOHigh:         320 * sim.Microsecond,
		RTOLowThreshold: 3,
		NackThreshold:   1,
	}
}
