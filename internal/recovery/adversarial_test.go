package recovery_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/rocev2"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/tcpstack"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/verbs"
)

// The adversarial-link grid: every caller of the shared scoreboard runs
// the same protocol properties over a link that drops, duplicates, delays
// and reorders data and acknowledgements alike — each row several seeded
// trials. Whatever the link does, every message completes exactly once
// and in order with its bytes intact, no packet goes out beyond the
// in-flight cap (where the transport has one), and the senders never sit
// silent on outstanding work for longer than a few RTOHigh.

const (
	advMTU     = 1000
	advCap     = 32 // BDP-FC in packets
	advRTOLow  = 100 * sim.Microsecond
	advRTOHigh = 320 * sim.Microsecond
	advTrials  = 5
	// advSilence bounds the gap between data transmissions while work is
	// outstanding: one timeout, plus slack for the link's worst delay.
	advSilence = 3 * advRTOHigh
)

// advLink is the adversary. Every packet handed to it is delivered zero,
// one or two times, each copy after its own random delay.
type advLink struct {
	eng *sim.Engine
	rng *sim.RNG
	t   *testing.T

	lastData sim.Time // when a data-bearing packet last entered the link
	busy     bool     // work outstanding: the silence bound applies
	sent     int
}

// data records a data-bearing transmission for the silence bound.
func (l *advLink) data() {
	now := l.eng.Now()
	if gap := now.Sub(l.lastData); l.busy && gap > advSilence {
		l.t.Fatalf("senders silent for %v with work outstanding (bound %v)", gap, advSilence)
	}
	l.lastData = now
	l.sent++
}

// carry schedules deliver for each copy of a packet that survives.
func (l *advLink) carry(deliver func()) {
	if l.rng.Float64() < 0.05 {
		return // dropped
	}
	copies := 1
	if l.rng.Float64() < 0.03 {
		copies = 2 // duplicated
	}
	for ; copies > 0; copies-- {
		d := 2*sim.Microsecond + sim.Duration(l.rng.Intn(3000))*sim.Nanosecond // jitter reorders
		if l.rng.Float64() < 0.02 {
			d += sim.Duration(l.rng.Intn(150)) * sim.Microsecond // held back past RTOLow
		}
		l.eng.After(d, deliver)
	}
}

// run drives the engine until done reports true, then checks the run
// drained: no timer left armed, nothing still retransmitting.
func (l *advLink) run(done func() bool) {
	l.busy = true
	deadline := sim.Time(2 * sim.Second)
	for !done() {
		at, ok := l.eng.NextEventTime()
		if !ok || at > deadline {
			l.t.Fatalf("stalled at %v with work outstanding (%d data packets sent)", l.eng.Now(), l.sent)
		}
		l.eng.RunUntil(at)
	}
	l.busy = false
	sentAtDone := l.sent
	l.eng.RunUntil(l.eng.Now().Add(20 * advRTOHigh))
	if l.eng.Pending() != 0 {
		l.t.Errorf("%d events still pending long after completion: a timer never stopped", l.eng.Pending())
	}
	if extra := l.sent - sentAtDone; extra > advCap {
		l.t.Errorf("%d data packets sent after everything completed", extra)
	}
}

// ---- flow transports (core, and iWARP's through tcpstack) ----

// flowEnd is the transport.Endpoint of one side of a flow. Control packets
// go over the link to the peer's source; Wake pulls the local source.
type flowEnd struct {
	l    *advLink
	src  transport.Source // local sender (nil at the receiving end)
	peer transport.Source // where control packets go
	sink transport.Sink   // where the sender's data goes
	cum  packet.PSN       // highest cumulative ack delivered to src
	wake bool
}

func (e *flowEnd) Now() sim.Time       { return e.l.eng.Now() }
func (e *flowEnd) Engine() *sim.Engine { return e.l.eng }
func (e *flowEnd) Clock() *sim.Clock   { return nil }
func (e *flowEnd) Pool() *packet.Pool  { return nil }

func (e *flowEnd) SendControl(p *packet.Packet) {
	e.l.carry(func() { e.peer.HandleControl(p, e.l.eng.Now()) })
}

func (e *flowEnd) Wake() {
	if e.wake || e.src == nil {
		return
	}
	e.wake = true
	e.l.eng.After(0, e.pull)
}

// pull is the NIC: it transmits while the source has packets, one MTU
// serialization apart, and sleeps until the source's pacing wake-up or
// its next Wake otherwise.
func (e *flowEnd) pull() {
	e.wake = false
	now := e.l.eng.Now()
	ready, wakeAt := e.src.HasData(now)
	if !ready {
		if wakeAt > now {
			e.wake = true
			e.l.eng.Schedule(wakeAt, e.pull)
		}
		return
	}
	p := e.src.NextPacket(now)
	if p == nil {
		e.l.t.Fatal("HasData reported ready but NextPacket returned nil")
	}
	e.l.data()
	e.l.carry(func() { e.sink.HandleData(p, e.l.eng.Now()) })
	e.wake = true
	e.l.eng.After(200*sim.Nanosecond, e.pull)
}

// ackTap watches the acknowledgements reaching a sender, so the in-flight
// bound is checked against what the sender has actually been told.
type ackTap struct {
	transport.Source
	e *flowEnd
}

func (a ackTap) HandleControl(p *packet.Packet, now sim.Time) {
	if (p.Type == packet.TypeAck || p.Type == packet.TypeNack) && p.CumAck > a.e.cum {
		a.e.cum = p.CumAck
	}
	a.Source.HandleControl(p, now)
}

// flowRow runs flows of the given packet counts, one after another's
// start but overlapping in time, each on its own sender/receiver pair.
// With capped set, every packet a sender emits is held to the in-flight
// cap.
func flowRow(capped bool, mk func(snd, rcv transport.Endpoint, fl *transport.Flow, done transport.Completer) (transport.Source, transport.Sink, *transport.SenderStats)) func(*advLink) {
	return func(l *advLink) {
		sizes := []int{1, 3, 1000, 2, 137}
		completions := make([]int, len(sizes))
		var stats []*transport.SenderStats
		var sources []transport.Source
		for i, pkts := range sizes {
			i := i
			fl := &transport.Flow{ID: packet.FlowID(i + 1), Src: 0, Dst: 1, Size: pkts*advMTU - 17, Pkts: pkts}
			se, re := &flowEnd{l: l}, &flowEnd{l: l}
			done := transport.CompleterFunc(func(got *transport.Flow, _ sim.Time) {
				if got != fl {
					l.t.Errorf("flow %d: completion for the wrong flow", i)
				}
				completions[i]++
			})
			src, sink, st := mk(se, re, fl, done)
			se.src = src
			if capped {
				se.src = sendTap{src, se} // the in-flight bound, at the moment of transmission
			}
			se.sink = sink
			re.peer = ackTap{src, se}
			stats = append(stats, st)
			sources = append(sources, src)
			l.eng.After(sim.Duration(i)*10*sim.Microsecond, se.Wake)
		}
		l.run(func() bool {
			for i := range sizes {
				if completions[i] == 0 || !sources[i].Done() {
					return false
				}
			}
			return true
		})
		retx := uint64(0)
		for i, n := range completions {
			if n != 1 {
				l.t.Errorf("flow %d (%d packets) completed %d times, want exactly once", i, sizes[i], n)
			}
			retx += stats[i].Retransmits
		}
		if retx == 0 {
			l.t.Error("no retransmissions: the link was not adversarial")
		}
	}
}

// sendTap checks BDP-FC on every packet a flow sender emits: never at or
// beyond the acknowledged point plus the cap.
type sendTap struct {
	transport.Source
	e *flowEnd
}

func (s sendTap) NextPacket(now sim.Time) *packet.Packet {
	p := s.Source.NextPacket(now)
	if p != nil && int(p.PSN-s.e.cum) >= advCap {
		s.e.l.t.Fatalf("flow %d sent PSN %d with cumulative ack %d: %d in flight, cap %d",
			p.Flow, p.PSN, s.e.cum, int(p.PSN-s.e.cum)+1, advCap)
	}
	return p
}

func coreRow(mode core.RecoveryMode) func(*advLink) {
	return flowRow(true, func(snd, rcv transport.Endpoint, fl *transport.Flow, done transport.Completer) (transport.Source, transport.Sink, *transport.SenderStats) {
		p := core.DefaultParams(advMTU, advCap)
		p.Recovery = mode
		p.RTOLow, p.RTOHigh = advRTOLow, advRTOHigh
		s := core.NewSender(snd, fl, p, nil)
		return s, core.NewReceiver(rcv, fl, p, done), &s.Stats
	})
}

func tcpRow() func(*advLink) {
	return flowRow(true, func(snd, rcv transport.Endpoint, fl *transport.Flow, done transport.Completer) (transport.Source, transport.Sink, *transport.SenderStats) {
		p := tcpstack.DefaultParams(advMTU)
		p.BDPCap = advCap
		// The RTO's cap, 4·RTOHigh, is advRTOHigh: no exponential
		// back-off past it, so the grid's silence bound means the same
		// thing for every row.
		p.RTOLow, p.RTOHigh = advRTOLow, advRTOHigh/4
		s := tcpstack.NewSender(snd, fl, p)
		return s, tcpstack.NewReceiver(rcv, fl, p, done), &s.Stats
	})
}

// roceRow runs RoCE's go-back-N without PFC, its timeouts on. RoCE has no
// BDP-FC, so the in-flight cap does not apply; instead the receiver must
// accept every PSN once and in order, and the payloads it accepts must add
// up to the message.
func roceRow() func(*advLink) {
	return flowRow(false, func(snd, rcv transport.Endpoint, fl *transport.Flow, done transport.Completer) (transport.Source, transport.Sink, *transport.SenderStats) {
		p := rocev2.DefaultParams(advMTU)
		p.RTOHigh = advRTOHigh
		s := rocev2.NewSender(snd, fl, p, nil)
		r := rocev2.NewReceiver(rcv, fl, p, done)
		return s, &inOrderTap{Receiver: r, t: rcv.(*flowEnd).l.t, fl: fl}, &s.Stats
	})
}

// inOrderTap counts the payload a RoCE receiver accepts, packet by packet
// as its expected PSN advances, and checks the message adds up once the
// last PSN is in.
type inOrderTap struct {
	*rocev2.Receiver
	t     *testing.T
	fl    *transport.Flow
	bytes int
}

func (a *inOrderTap) HandleData(p *packet.Packet, now sim.Time) {
	before, psn, payload := a.Expected(), p.PSN, int(p.Wire)-packet.DataHeader
	a.Receiver.HandleData(p, now)
	switch after := a.Expected(); {
	case after == before:
	case after != before+1 || psn != before:
		a.t.Fatalf("flow %d: PSN %d moved the expected PSN from %d to %d", a.fl.ID, psn, before, after)
	default:
		a.bytes += payload
		if int(after) == a.fl.Pkts && a.bytes != a.fl.Size {
			a.t.Errorf("flow %d: accepted %d payload bytes of a %d-byte message", a.fl.ID, a.bytes, a.fl.Size)
		}
	}
}

// ---- verbs ----

func isVerbsAck(op packet.Opcode) bool {
	return op == packet.OpAcknowledge || op == packet.OpAtomicAcknowledge || op == packet.OpReadNack
}

func isReadResp(op packet.Opcode) bool {
	return op >= packet.OpReadRespFirst && op <= packet.OpReadRespOnly
}

// verbsRow runs verbsTrial twice on the same link decisions — over a wire
// that gives every delivered packet to the receiving QP's free list and
// over one that never does — and, on top of the trial's own checks,
// requires the two to transmit and complete identically: recycling
// packets changes where they live and nothing else.
func verbsRow(op verbs.OpType, goBackN bool) func(*advLink) {
	return func(l *advLink) {
		rng := *l.rng
		twin := &advLink{eng: sim.NewEngine(), rng: &rng, t: l.t}
		released, kept := verbsTrial(l, op, goBackN, true), verbsTrial(twin, op, goBackN, false)
		if !reflect.DeepEqual(released, kept) {
			l.t.Errorf("releasing and non-releasing wires diverged: %d vs %d transmissions, %d vs %d completions, retransmits %v vs %v, timeouts %v vs %v",
				len(released.sends), len(kept.sends), len(released.cqes), len(kept.cqes),
				released.retransmits, kept.retransmits, released.timeouts, kept.timeouts)
		}
	}
}

// verbsSend is one packet handed to the link.
type verbsSend struct {
	at    sim.Time
	fromA bool
	op    packet.Opcode
	psn   uint32
}

// verbsTrace is everything a verbs trial did that a peer or an
// application could observe.
type verbsTrace struct {
	sends                 []verbsSend
	cqes                  []verbs.CQE // requester's, then responder's
	retransmits, timeouts [2]uint64
}

// verbsTrial posts n messages of op on one QP pair and checks requester
// completions (order, exactly once) and the bytes that moved. The link
// delivers the pointer it was handed at most once — a duplicate is the
// link's own by-value copy — and, with release set, then gives it to the
// receiving QP, as verbs.Wire allows.
func verbsTrial(l *advLink, op verbs.OpType, goBackN, release bool) verbsTrace {
	var tr verbsTrace
	cfg := verbs.DefaultConfig()
	cfg.MTU, cfg.BDPCap, cfg.GoBackN = advMTU, advCap, goBackN
	cfg.RTOLow, cfg.RTOHigh = advRTOLow, advRTOHigh
	var a, b *verbs.QP
	cqA, cqB := &verbs.CQ{}, &verbs.CQ{}
	memB := verbs.NewMemory()
	reqCum := uint32(0) // highest request-stream cumulative ack delivered to a
	wire := func(to **verbs.QP, fromA bool) verbs.Wire {
		return verbs.WireFunc(func(p *verbs.VPacket) {
			op := p.BTH.Opcode
			if !isVerbsAck(op) {
				l.data()
			}
			if fromA && !isVerbsAck(op) && int(p.BTH.PSN-reqCum) >= advCap {
				l.t.Fatalf("request PSN %d sent with cumulative ack %d: beyond the cap %d", p.BTH.PSN, reqCum, advCap)
			}
			tr.sends = append(tr.sends, verbsSend{l.eng.Now(), fromA, op, p.BTH.PSN})
			sent, first := *p, true
			l.carry(func() {
				d := p
				if !first {
					d = new(verbs.VPacket)
					*d = sent
				}
				if !fromA && (op == packet.OpAcknowledge || op == packet.OpAtomicAcknowledge) && d.BTH.PSN > reqCum {
					reqCum = d.BTH.PSN
				}
				(*to).Receive(d, l.eng.Now())
				if release && first {
					(*to).Release(p)
				}
				first = false
			})
		})
	}
	a = verbs.NewQP("a", l.eng, cfg, wire(&b, true), verbs.NewMemory(), cqA)
	b = verbs.NewQP("b", l.eng, cfg, wire(&a, false), memB, cqB)

	const n = 40
	const slot = 24 * 1024
	region := make([]byte, n*slot)
	memB.Register(7, region)
	want := make([][]byte, n)
	local := make([][]byte, n)
	imms := 0
	for i := 0; i < n; i++ {
		size := 1 + (i*7919)%(20*advMTU)
		want[i] = make([]byte, size)
		for j := range want[i] {
			want[i][j] = byte(i*31 + j)
		}
		req := verbs.Request{ID: uint64(i), Op: op, RKey: 7, VA: uint64(i * slot)}
		switch op {
		case verbs.OpRead:
			copy(region[i*slot:], want[i])
			local[i] = make([]byte, size)
			req.Local = local[i]
		default:
			req.Data = want[i]
			if i%4 == 3 { // every fourth write also completes at the responder
				req.Op, req.Imm = verbs.OpWriteImm, uint32(i)
				b.PostRecv(uint64(1000+i), nil)
				imms++
			}
		}
		if err := a.PostSend(req); err != nil {
			l.t.Fatal(err)
		}
	}
	var got, gotB []verbs.CQE
	l.run(func() bool {
		got = append(got, cqA.Poll()...)
		gotB = append(gotB, cqB.Poll()...)
		return len(got) >= n && len(gotB) >= imms
	})
	got = append(got, cqA.Poll()...)
	gotB = append(gotB, cqB.Poll()...)

	if len(got) != n {
		l.t.Fatalf("%d requester completions, want %d", len(got), n)
	}
	for i, c := range got {
		if c.WQEID != uint64(i) || c.Status != verbs.StatusOK {
			l.t.Fatalf("completion %d is for WQE %d with status %v: out of order or failed", i, c.WQEID, c.Status)
		}
		if op == verbs.OpRead {
			if !bytes.Equal(local[i], want[i]) {
				l.t.Errorf("read %d returned the wrong bytes", i)
			}
		} else if !bytes.Equal(region[i*slot:i*slot+len(want[i])], want[i]) {
			l.t.Errorf("write %d landed the wrong bytes", i)
		}
	}
	if len(gotB) != imms {
		l.t.Fatalf("%d responder completions, want %d", len(gotB), imms)
	}
	for k, c := range gotB {
		if wantID := uint64(1000 + 4*k + 3); c.WQEID != wantID || c.Imm != uint32(4*k+3) {
			l.t.Errorf("responder completion %d: WQE %d imm %d, want WQE %d", k, c.WQEID, c.Imm, wantID)
		}
	}
	if a.Retransmits+b.Retransmits == 0 {
		l.t.Error("no retransmissions: the link was not adversarial")
	}
	tr.cqes = append(got, gotB...)
	tr.retransmits = [2]uint64{a.Retransmits, b.Retransmits}
	tr.timeouts = [2]uint64{a.Timeouts, b.Timeouts}
	return tr
}

func TestAdversarialLink(t *testing.T) {
	rows := []struct {
		name string
		run  func(*advLink)
	}{
		{"core-SACK", coreRow(core.RecoverySACK)},
		{"core-NoSACK", coreRow(core.RecoveryNoSACK)},
		{"core-GBN", coreRow(core.RecoveryGoBackN)},
		{"tcpstack", tcpRow()},
		{"rocev2", roceRow()},
		{"verbs-SACK-write", verbsRow(verbs.OpWrite, false)},
		{"verbs-GBN-write", verbsRow(verbs.OpWrite, true)},
		{"verbs-READ", verbsRow(verbs.OpRead, false)},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			for trial := 0; trial < advTrials; trial++ {
				t.Run(fmt.Sprint("seed", trial+1), func(t *testing.T) {
					row.run(&advLink{
						eng: sim.NewEngine(),
						rng: sim.NewRNG(sim.DeriveSeed(1, row.name, trial)),
						t:   t,
					})
				})
			}
		})
	}
}
