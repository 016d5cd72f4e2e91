package transport_test

import (
	"testing"

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/rocev2"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/tcpstack"
	"github.com/irnsim/irn/internal/transport"
)

// echoEP is a transport.Endpoint that records the control packets a
// receiver emits.
type echoEP struct {
	eng  *sim.Engine
	sent []*packet.Packet
}

func (e *echoEP) Now() sim.Time                  { return e.eng.Now() }
func (e *echoEP) Engine() *sim.Engine            { return e.eng }
func (e *echoEP) Clock() *sim.Clock              { return nil }
func (e *echoEP) SendControl(pkt *packet.Packet) { e.sent = append(e.sent, pkt) }
func (e *echoEP) Wake()                          {}
func (e *echoEP) Pool() *packet.Pool             { return nil }

// TestReceiversEchoSentAt: on every transport, the ACK or NACK a data
// arrival triggers carries that data packet's SentAt, which the sender
// turns into an RTT sample. Packet.SentAt is the send time on data and
// the echoed send time on ACK/NACK, so a receiver that forgot to copy it
// would leave the sender with no RTT at all.
func TestReceiversEchoSentAt(t *testing.T) {
	type step struct {
		psn    packet.PSN
		sentAt sim.Time
		want   packet.Type // the control packet this arrival must trigger
	}
	// In order, then a gap (PSN 2 before 1), then the gap filled.
	inOrderGapFill := func(gap packet.Type) []step {
		return []step{
			{0, 5, packet.TypeAck},
			{2, 7, gap},
			{1, 9, packet.TypeAck},
		}
	}
	cases := []struct {
		name  string
		sink  func(ep transport.Endpoint, fl *transport.Flow) transport.Sink
		steps []step
	}{
		{"core", func(ep transport.Endpoint, fl *transport.Flow) transport.Sink {
			return core.NewReceiver(ep, fl, core.DefaultParams(1000, 110), nil)
		}, inOrderGapFill(packet.TypeNack)},
		{"rocev2", func(ep transport.Endpoint, fl *transport.Flow) transport.Sink {
			p := rocev2.DefaultParams(1000)
			p.PerPacketAck = true
			return rocev2.NewReceiver(ep, fl, p, nil)
		}, inOrderGapFill(packet.TypeNack)},
		// iWARP's receiver is IRN's, with the socket buffer as its
		// window: it answers a gap with a NACK, which the TCP sender
		// takes for a duplicate ACK carrying the SACK.
		{"tcpstack", func(ep transport.Endpoint, fl *transport.Flow) transport.Sink {
			return tcpstack.NewReceiver(ep, fl, tcpstack.DefaultParams(1000), nil)
		}, inOrderGapFill(packet.TypeNack)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ep := &echoEP{eng: sim.NewEngine()}
			fl := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 4000, Pkts: 4}
			r := c.sink(ep, fl)
			for _, s := range c.steps {
				d := packet.NewData(fl.ID, fl.Src, fl.Dst, s.psn, 1000, false)
				d.SentAt = s.sentAt
				ep.sent = ep.sent[:0]
				r.HandleData(d, s.sentAt+1)
				found := false
				for _, p := range ep.sent {
					if p.Type != packet.TypeAck && p.Type != packet.TypeNack {
						continue
					}
					found = found || p.Type == s.want
					if p.SentAt != s.sentAt {
						t.Errorf("psn %d: %v carries SentAt %d, want the trigger's %d", s.psn, p, p.SentAt, s.sentAt)
					}
				}
				if !found {
					t.Errorf("psn %d: no %v among %v", s.psn, s.want, ep.sent)
				}
			}
		})
	}
}
