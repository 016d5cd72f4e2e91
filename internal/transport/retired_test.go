package transport_test

import (
	"fmt"
	"testing"

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/rocev2"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/tcpstack"
	"github.com/irnsim/irn/internal/transport"
)

// ctrlFields is what a receiver's control packet says, field by field.
type ctrlFields struct {
	typ       packet.Type
	flow      packet.FlowID
	src, dst  packet.NodeID
	cum, sack packet.PSN
	sentAt    sim.Time
	ecnEcho   bool
}

func (c ctrlFields) String() string {
	return fmt.Sprintf("{%v flow %d %d->%d cum %d sack %d sentAt %d ecn %v}",
		c.typ, c.flow, c.src, c.dst, c.cum, c.sack, c.sentAt, c.ecnEcho)
}

func fieldsOf(ps []*packet.Packet) []ctrlFields {
	out := make([]ctrlFields, len(ps))
	for i, p := range ps {
		out[i] = ctrlFields{p.Type, p.Flow, p.Src, p.Dst, p.CumAck, p.SackPSN, p.SentAt, p.ECNEcho}
	}
	return out
}

// lateDup is one late duplicate: its gap after the previous one, its PSN
// and whether it is CE-marked.
type lateDup struct {
	gap sim.Duration
	psn packet.PSN
	ce  bool
}

// TestRetiredAnswersAsItsReceiver: once its flow has completed, a
// receiver and the transport.Retired record it builds at completion give
// the same answer to every late duplicate — the same control packets in
// the same order, field by field. The duplicates mix CE-marked and
// unmarked packets at gaps below and above transport.CNPInterval, and the
// sequence starts both inside and outside the interval of the last CNP
// sent before completion, so a record that lost the CNP generator's
// state answers differently.
func TestRetiredAnswersAsItsReceiver(t *testing.T) {
	us := sim.Microsecond
	seq := []lateDup{
		{0, 2, true},
		{20 * us, 0, true},
		{10 * us, 3, false},
		{25 * us, 1, true}, // 55 µs after the first: may notify again
		{60 * us, 3, true},
		{49 * us, 2, true},
		{1 * us, 0, true},
		{80 * us, 1, false},
		{0, 3, true},
		{3 * us, 2, false},
	}
	type sinkCase struct {
		name string
		sink func(ep transport.Endpoint, fl *transport.Flow, done transport.Completer) transport.Retirer
	}
	sinks := []sinkCase{
		{"core", func(ep transport.Endpoint, fl *transport.Flow, done transport.Completer) transport.Retirer {
			return core.NewReceiver(ep, fl, core.DefaultParams(1000, 110), done)
		}},
		{"rocev2", func(ep transport.Endpoint, fl *transport.Flow, done transport.Completer) transport.Retirer {
			return rocev2.NewReceiver(ep, fl, rocev2.DefaultParams(1000), done)
		}},
		{"rocev2-per-packet-ack", func(ep transport.Endpoint, fl *transport.Flow, done transport.Completer) transport.Retirer {
			p := rocev2.DefaultParams(1000)
			p.PerPacketAck = true
			return rocev2.NewReceiver(ep, fl, p, done)
		}},
		// iWARP data is never ECN-capable, so the fabric never marks it,
		// but its receiver is IRN's and would answer marks alike.
		{"tcpstack", func(ep transport.Endpoint, fl *transport.Flow, done transport.Completer) transport.Retirer {
			return tcpstack.NewReceiver(ep, fl, tcpstack.DefaultParams(1000), done)
		}},
	}
	// The flow's four packets arrive in order at 1–4 µs, the first and
	// the last CE-marked, so the last CNP before completion goes at 1 µs.
	// The late duplicates then start 10 µs after completion (inside that
	// CNP's interval) or 100 µs after it (outside).
	for _, sc := range sinks {
		for _, start := range []sim.Duration{10 * us, 100 * us} {
			t.Run(fmt.Sprintf("%s/start+%dus", sc.name, start/us), func(t *testing.T) {
				ep := &echoEP{eng: sim.NewEngine()}
				fl := &transport.Flow{ID: 7, Src: 3, Dst: 5, Size: 4000, Pkts: 4}
				var r transport.Retirer
				var rec transport.Retired
				completions := 0
				r = sc.sink(ep, fl, transport.CompleterFunc(func(*transport.Flow, sim.Time) {
					completions++
					rec = r.Retired() // as the launcher does, inside FlowDone
				}))
				now := sim.Time(0)
				for psn := packet.PSN(0); psn < 4; psn++ {
					now = now.Add(us)
					d := packet.NewData(fl.ID, fl.Src, fl.Dst, psn, 1000, psn == 3)
					d.SentAt, d.CE = now-500, psn == 0 || psn == 3
					r.HandleData(d, now)
				}
				if completions != 1 {
					t.Fatalf("%d completions, want 1", completions)
				}

				recEP := &echoEP{eng: ep.eng}
				ep.sent = ep.sent[:0]
				now = now.Add(start)
				marked := 0
				for i, ld := range seq {
					now = now.Add(ld.gap)
					mk := func() *packet.Packet {
						d := packet.NewData(fl.ID, fl.Src, fl.Dst, ld.psn, 1000, ld.psn == 3)
						d.SentAt, d.CE = now-sim.Time(100*(i+1)), ld.ce
						return d
					}
					r.HandleData(mk(), now)
					rec.Answer(recEP, fl.Dst, mk(), now)
					if ld.ce {
						marked++
					}
				}

				got, want := fieldsOf(recEP.sent), fieldsOf(ep.sent)
				if len(got) != len(want) {
					t.Fatalf("record sent %d control packets, receiver %d\nrecord:   %v\nreceiver: %v", len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("control packet %d: record sent %v, receiver %v", i, got[i], want[i])
					}
				}
				acks, cnps := 0, 0
				for _, c := range want {
					switch {
					case c.typ == packet.TypeAck && c.cum == 4 && c.sack == 0:
						acks++
					case c.typ == packet.TypeCNP:
						cnps++
					default:
						t.Fatalf("late duplicate answered with %v, want a full ACK or a CNP", c)
					}
				}
				if acks != len(seq) || rec.Answers() != uint64(len(seq)) {
					t.Fatalf("%d full ACKs, %d answers counted, want one each per late duplicate (%d)", acks, rec.Answers(), len(seq))
				}
				// The sequence must exercise the generator both ways:
				// some marked duplicates notify, others are held back.
				if cnps == 0 || cnps == marked {
					t.Fatalf("%d CNPs for %d marked duplicates: the sequence does not exercise the CNP interval", cnps, marked)
				}
			})
		}
	}
}
