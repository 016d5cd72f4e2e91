package transport

import (
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// CNPInterval is the least time between two congestion notifications on
// one flow (50 µs on ConnectX-4).
const CNPInterval = 50 * sim.Microsecond

// CNPGenerator implements the receiver half of DCQCN: when CE-marked data
// packets arrive, it emits at most one congestion notification packet per
// flow per CNPInterval. The zero value has sent none yet. It lives here
// rather than in internal/cc so that a Retired record can carry it.
type CNPGenerator struct {
	// until is when the next CNP may go: the last one's time plus
	// CNPInterval, or 0 before the first (simulated time is never
	// negative).
	until sim.Time
}

// OnMarked reports whether a CNP should be sent for a CE-marked arrival
// at time now.
func (g *CNPGenerator) OnMarked(now sim.Time) bool {
	if now < g.until {
		return false
	}
	g.until = now.Add(CNPInterval)
	return true
}

// Retired is what a flow's receiving host keeps of it once the flow has
// completed: enough to answer a late duplicate — a retransmission that
// crossed the final ACK — exactly as the completed receiver would, so the
// receiver itself can go to another flow. After completion the IRN, RoCE
// and TCP receivers all give the same answer to any data packet: a CNP if
// the packet is CE-marked and the flow's CNP generator allows one, then a
// cumulative ACK of the whole message echoing the packet's SentAt and CE
// mark. A Retirer builds the record; the fabric keeps it by value in a
// table of the receiving NIC, 24 bytes per flow.
type Retired struct {
	cnp     CNPGenerator
	peer    packet.NodeID // the flow's source host
	pkts    packet.PSN    // message length in packets; 0 only in the zero record
	answers uint32        // late data packets answered
}

// NewRetired returns the record of completed flow fl, whose receiver's
// CNP generator is cnp.
func NewRetired(fl *Flow, cnp CNPGenerator) Retired {
	return Retired{cnp: cnp, peer: fl.Src, pkts: packet.PSN(fl.Pkts)}
}

// Empty reports whether r is the zero record, which stands for no flow.
func (r *Retired) Empty() bool { return r.pkts == 0 }

// Answers reports how many late data packets r has answered.
func (r *Retired) Answers() uint64 { return uint64(r.answers) }

// Answer replies, on ep, to data packet pkt of the retired flow arriving
// at host self at time now.
func (r *Retired) Answer(ep Endpoint, self packet.NodeID, pkt *packet.Packet, now sim.Time) {
	r.answers++
	pool := ep.Pool()
	if pkt.CE && r.cnp.OnMarked(now) {
		ep.SendControl(pool.NewCNP(pkt.Flow, self, r.peer))
	}
	ack := pool.NewAck(pkt.Flow, self, r.peer, r.pkts)
	ack.SentAt = pkt.SentAt
	ack.ECNEcho = pkt.CE
	ep.SendControl(ack)
}

// Retirer is a Sink whose flow can retire into a Retired record. Retired
// is called once the flow has completed, and the record must answer every
// later data packet as the Sink itself would.
type Retirer interface {
	Sink
	Retired() Retired
}
