package kv

// This file bridges the verbs layer onto the simulated fabric: a QP's
// abstract Wire becomes real packets on the network, so RDMA messages
// ride the same switches, buffers, PFC pauses, and fault schedules as
// every other flow.
//
// Each QP pair maps onto two fabric flows, one per data direction. A
// host's outbound verbs data queues in a vsource attached to its NIC
// (the NIC's egress scheduler pulls and paces it like any transport
// source); ack-family packets go out on the *peer's* data flow via
// SendControl, so the peer's NIC routes them back to the peer's source
// half — exactly how the native transports receive their ACKs.
//
// Packet ownership contract: the fabric packet only ferries a pointer to
// the verbs packet (Packet.Verbs, a typed *VPacket that is nil on every
// other packet), and each fabric packet wraps a verbs packet of its own
// — verbs.Wire.Send hands over a fresh copy per transmission and the
// sending QP never touches it again. The receiving side extracts it
// inside HandleData/HandleControl (the NIC releases the fabric packet —
// wiping Verbs — the moment the handler returns), delivers it once and
// gives it to the receiving QP's free list (QP.Release). A copy the
// fabric drops is left to the GC.

import (
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fifo"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/verbs"
)

// endpoint is one host's end of a bridged QP pair. posted is the frames
// handed to the QP and not yet completed, oldest first.
type endpoint struct {
	src    *vsource
	qp     *verbs.QP
	posted fifo.Queue[*frame]
}

// attachEndpoint builds this host's half of a QP pair: the QP itself
// (clocked by the owning NIC), the egress source carrying its data flow
// `out`, and the sink receiving the peer's data flow `in`. Runs inside an
// attach event, like every NIC mutation.
func attachEndpoint(nic *fabric.NIC, peer packet.NodeID, out, in packet.FlowID,
	cfg verbs.Config, mem *verbs.Memory, cq *verbs.CQ, name string) *endpoint {
	src := &vsource{
		nic: nic,
		fl:  transport.Flow{ID: out, Src: nic.ID(), Dst: peer},
	}
	pt := &port{nic: nic, peer: peer, src: src, inFlow: in}
	qp := verbs.NewQPOn(name, nic.Engine(), nic.Clock(), cfg, pt, mem, cq)
	src.qp = qp
	nic.AttachSource(src)
	nic.AttachSink(in, &vsink{qp: qp})
	return &endpoint{src: src, qp: qp}
}

// port implements verbs.Wire over a NIC: data-class packets queue on the
// host's egress source; ack-class packets ride the control path (strict
// priority at the NIC, same links and buffers in the network).
type port struct {
	nic    *fabric.NIC
	peer   packet.NodeID
	src    *vsource
	inFlow packet.FlowID // the flow the peer's data arrives on; our acks answer on it
}

// Send implements verbs.Wire.
func (pt *port) Send(vp *verbs.VPacket) {
	switch vp.BTH.Opcode {
	case packet.OpAcknowledge, packet.OpAtomicAcknowledge, packet.OpReadNack:
		pk := pt.nic.Pool().NewAck(pt.inFlow, pt.nic.ID(), pt.peer, vp.BTH.PSN)
		pk.Verbs = vp
		pt.nic.SendControl(pk)
	default:
		pt.src.push(vp)
	}
}

// vsource queues a QP's outbound data packets for the NIC egress
// scheduler. It never finishes: verbs connections are long-lived, and a
// zero wakeAt keeps the NIC event-driven (push calls Wake).
type vsource struct {
	nic *fabric.NIC
	fl  transport.Flow
	qp  *verbs.QP
	q   fifo.Queue[*verbs.VPacket]
}

// push enqueues an outbound verbs packet and kicks the NIC.
func (s *vsource) push(vp *verbs.VPacket) {
	s.q.Push(vp)
	s.nic.Wake()
}

// Flow implements transport.Source.
func (s *vsource) Flow() *transport.Flow { return &s.fl }

// HasData implements transport.Source.
func (s *vsource) HasData(now sim.Time) (bool, sim.Time) {
	return s.q.Len() > 0, 0
}

// NextPacket implements transport.Source: wrap the next verbs packet in
// a fabric data packet. The wire size counts the IRN headers (RETH in
// every packet, the IRN extension) on top of the standard RoCEv2 frame.
func (s *vsource) NextPacket(now sim.Time) *packet.Packet {
	vp := s.q.Pop()
	pk := s.nic.Pool().NewData(s.fl.ID, s.fl.Src, s.fl.Dst, vp.BTH.PSN,
		len(vp.Payload), vp.BTH.Opcode.IsLast())
	pk.Wire = int32(len(vp.Payload) + packet.DataHeader + packet.RETHSize + packet.IRNExtSize)
	pk.Verbs = vp
	return pk
}

// HandleControl implements transport.Source: ack-family packets for our
// data flow carry the peer's verbs (N)ACK.
func (s *vsource) HandleControl(pk *packet.Packet, now sim.Time) {
	if vp := pk.Verbs; vp != nil {
		s.qp.Receive(vp, now)
		s.qp.Release(vp)
	}
}

// Done implements transport.Source; verbs connections never detach.
func (s *vsource) Done() bool { return false }

// vsink delivers the peer's data packets into our QP.
type vsink struct {
	qp *verbs.QP
}

// HandleData implements transport.Sink.
func (k *vsink) HandleData(pk *packet.Packet, now sim.Time) {
	if vp := pk.Verbs; vp != nil {
		k.qp.Receive(vp, now)
		k.qp.Release(vp)
	}
}
