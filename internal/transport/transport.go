// Package transport defines the contracts between the fabric's host NICs
// and the transport implementations that ride on them (IRN in
// internal/core, RoCE go-back-N in internal/rocev2, the iWARP TCP stack in
// internal/tcpstack), plus the flow bookkeeping they all share.
//
// The model follows the paper's simulator (§4.1): "RDMA queue-pairs (QPs)
// are modelled as UDP applications with either RoCE or IRN transport layer
// logic... When the sender QP is ready to transmit data packets, it
// periodically polls the MAC layer until the link is available for
// transmission." Here the polling inverts into a pull: the NIC's egress
// scheduler asks each registered Source for its next packet, and sources
// wake the NIC when new transmission credit arrives (ACKs, timeouts,
// congestion-control timers).
package transport

import (
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// Flow is one unit of data transfer — one message between a
// source-destination queue pair, as in the paper's workload model.
type Flow struct {
	ID    packet.FlowID
	Src   packet.NodeID
	Dst   packet.NodeID
	Size  int // payload bytes
	Pkts  int // number of MTU-sized packets
	Start sim.Time

	// Filled in by the receiving transport at completion.
	Finished bool
	Finish   sim.Time
}

// NumPackets computes how many MTU payloads a message of size bytes
// occupies (minimum one: zero-length RDMA messages still send a packet).
func NumPackets(size, mtu int) int {
	if size <= 0 {
		return 1
	}
	return (size + mtu - 1) / mtu
}

// PayloadOf returns the payload length of packet psn (0-based) in a
// message of size bytes split at mtu.
func PayloadOf(size, mtu int, psn int) int {
	if size <= 0 {
		return 0
	}
	last := (size-1)/mtu == psn
	if last {
		return size - psn*mtu
	}
	return mtu
}

// Endpoint is the NIC-side interface handed to transports: a clock, a way
// to emit control packets (ACK/NACK/CNP) onto the host's egress link, and
// a wake signal for the egress scheduler.
type Endpoint interface {
	// Now returns the current simulation time.
	Now() sim.Time
	// Engine exposes the event engine for timers. In a sharded fabric
	// this is the engine of the shard owning the endpoint's host.
	Engine() *sim.Engine
	// Clock returns the host node's rank clock. Everything a transport
	// schedules — timers, RNR resumes — must be ranked under it so the
	// canonical (time, rank) event order is identical whether the fabric
	// runs serial or sharded. Nil is legal (unit tests) and falls back to
	// the engine's own clock.
	Clock() *sim.Clock
	// SendControl queues a control packet on the host's egress port.
	// Control packets get strict priority over data at the NIC but share
	// the same links and buffers in the network, so their bandwidth cost
	// is fully modelled (the paper's IRN results "take into account the
	// overhead of per-packet ACKs", §5.2).
	SendControl(pkt *packet.Packet)
	// Wake tells the NIC egress scheduler that a source may have become
	// ready (window opened, pacing expired, recovery entered).
	Wake()
	// Pool returns the engine's packet free-list; transports route all
	// packet construction through it so steady-state traffic allocates
	// nothing. A nil pool is legal (unit tests, microbenchmarks) and
	// degrades to plain heap allocation.
	Pool() *packet.Pool
}

// Source is the sender half of a transport attached to a NIC.
type Source interface {
	// Flow returns the flow this source transmits.
	Flow() *Flow
	// HasData reports whether a packet can be sent now. If not ready
	// because of pacing, wakeAt gives the earliest send time and the NIC
	// arms a wake-up; wakeAt zero means "event-driven" (the source will
	// call Endpoint.Wake when it becomes ready).
	HasData(now sim.Time) (ready bool, wakeAt sim.Time)
	// NextPacket pops the next packet to transmit. Only called after
	// HasData reported ready.
	NextPacket(now sim.Time) *packet.Packet
	// HandleControl processes an ACK/NACK/CNP addressed to this sender.
	HandleControl(pkt *packet.Packet, now sim.Time)
	// Done reports whether the flow is fully acknowledged and the source
	// can be detached.
	Done() bool
}

// SenderStats counts sender-side events. Every transport's Sender exports
// one as its Stats field; a transport leaves the counters it has no event
// for at zero.
type SenderStats struct {
	Sent            uint64 // data packets transmitted (including retransmits)
	Retransmits     uint64
	Timeouts        uint64
	Nacks           uint64 // NACKs received
	Recoveries      uint64 // times loss recovery was entered
	FastRetransmits uint64 // duplicate-ACK recoveries (tcpstack)
}

// Completer receives flow-completion notifications from receiving
// transports. It replaces the old per-flow onComplete closure: the
// experiment launcher registers one Completer for every flow, so starting
// a flow allocates no closure, and the flow pointer carries enough
// identity (ID, Dst) to route the completion to per-shard bookkeeping.
type Completer interface {
	// FlowDone fires exactly once per flow, when the last packet of the
	// message arrives, on the goroutine of the shard owning the flow's
	// destination host.
	FlowDone(fl *Flow, now sim.Time)
}

// CompleterFunc adapts a function to the Completer interface (tests,
// examples).
type CompleterFunc func(fl *Flow, now sim.Time)

// FlowDone implements Completer.
func (f CompleterFunc) FlowDone(fl *Flow, now sim.Time) { f(fl, now) }

// Sink is the receiver half of a transport attached to a NIC.
type Sink interface {
	// HandleData processes an arriving data packet and emits whatever
	// control traffic the protocol calls for via the Endpoint.
	HandleData(pkt *packet.Packet, now sim.Time)
}

// Controller is the congestion-control hook senders drive. Rate-based
// schemes (Timely, DCQCN) express themselves through SendDelay; window-
// based schemes (TCP AIMD, DCTCP) through WindowPackets. A controller may
// use both. The no-op controller (nil or None) sends at line rate, as the
// paper's base IRN and RoCE configurations do.
type Controller interface {
	// OnAck is invoked for every cumulative-ACK advance with the RTT
	// sample of the acknowledged packet, the number of packets newly
	// acknowledged, and whether the ACK carried an ECN echo.
	OnAck(now sim.Time, rtt sim.Duration, acked int, ecnEcho bool)
	// OnCNP is invoked when a DCQCN congestion notification arrives.
	OnCNP(now sim.Time)
	// OnLoss is invoked when the sender detects a loss (NACK or timeout);
	// whether and how to back off is the controller's decision.
	OnLoss(now sim.Time)
	// SendDelay returns the pacing delay to impose after transmitting
	// wire bytes (zero = line rate).
	SendDelay(wire int) sim.Duration
	// WindowPackets returns the window limit in packets (zero = none).
	WindowPackets() int
}

// Stopper is implemented by controllers with background timers (DCQCN);
// a sender stops its controller when the flow completes.
type Stopper interface{ Stop() }

// None is the absence of explicit congestion control: line-rate sending,
// no window. ("The flow starts at line-rate for all cases", §4.1.)
type None struct{}

// OnAck implements Controller.
func (None) OnAck(sim.Time, sim.Duration, int, bool) {}

// OnCNP implements Controller.
func (None) OnCNP(sim.Time) {}

// OnLoss implements Controller.
func (None) OnLoss(sim.Time) {}

// SendDelay implements Controller.
func (None) SendDelay(int) sim.Duration { return 0 }

// WindowPackets implements Controller.
func (None) WindowPackets() int { return 0 }

var _ Controller = None{}
