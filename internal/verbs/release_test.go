package verbs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// staleWire is a Wire that keeps the packet-ownership contract honest. It
// snapshots every packet at Send, loses a few, holds a share of the rest
// — and by-value duplicates of them — long enough for the retransmission
// and the cumulative ack to overtake them, checks at delivery that the
// packet still reads what was sent, and gives each pointer it was handed
// to the receiving QP exactly once, after Receive returns.
type staleWire struct {
	t    *testing.T
	eng  *sim.Engine
	rng  *sim.RNG
	to   **QP
	late int // data packets delivered below the receiver's cumulative point
}

func (w *staleWire) Send(p *VPacket) {
	snap := *p
	if w.rng.Float64() < 0.05 {
		return // lost: never delivered, never released
	}
	delay := func() sim.Duration {
		d := 2*sim.Microsecond + sim.Duration(w.rng.Intn(3000))*sim.Nanosecond
		if w.rng.Float64() < 0.10 {
			d += sim.Duration(150+w.rng.Intn(450)) * sim.Microsecond // past RTOHigh
		}
		return d
	}
	w.eng.After(delay(), func() { w.deliver(p, &snap, true) })
	if w.rng.Float64() < 0.05 {
		dup := new(VPacket) // the wire's own copy: not a QP's to release
		*dup = *p
		w.eng.After(delay(), func() { w.deliver(dup, &snap, false) })
	}
}

func (w *staleWire) deliver(p, snap *VPacket, release bool) {
	if !reflect.DeepEqual(p, snap) {
		w.t.Fatalf("packet rewritten while the wire held it: sent %v PSN %d (%d bytes), now %v PSN %d (%d bytes)",
			snap.BTH.Opcode, snap.BTH.PSN, len(snap.Payload), p.BTH.Opcode, p.BTH.PSN, len(p.Payload))
	}
	dst := *w.to
	switch op := p.BTH.Opcode; {
	case isAck(op):
	case op >= packet.OpReadRespFirst && op <= packet.OpReadRespOnly:
		if p.BTH.PSN < dst.rrxExp {
			w.late++
		}
	default:
		if p.BTH.PSN < dst.rxExp {
			w.late++
		}
	}
	dst.Receive(p, w.eng.Now())
	if release {
		dst.Release(p)
	}
}

// scribble overwrites every packet on q's free list, keeping the list:
// whatever still reads a freed packet reads garbage. A packet that comes
// off the list twice was released twice.
func scribble(t *testing.T, q *QP, poison []byte) (n int) {
	var free []*VPacket
	seen := map[*VPacket]bool{}
	for p := q.pktFree.Pop(); p != nil; p = q.pktFree.Pop() {
		if seen[p] {
			t.Fatal("a packet was released twice")
		}
		seen[p] = true
		free = append(free, p)
	}
	for i := len(free) - 1; i >= 0; i-- {
		p := free[i]
		*p = VPacket{
			BTH:     packet.BTH{Opcode: packet.OpWriteOnlyImm, PSN: 0xdeadbeef},
			RETH:    packet.RETH{VA: 1 << 40, RKey: 0xbad, DMALen: 1 << 30},
			Ext:     packet.IRNExt{WQESeq: 0xdead, RelOffset: 0xbeef},
			AETH:    packet.AETH{Syndrome: packet.SyndromeNack, MSN: 0xdeadbeef},
			SackPSN: 0xdeadbeef, Imm: 0xdeadbeef, InvKey: 0xbad,
			Payload: poison,
		}
		q.pktFree.Push(p)
		n++
	}
	return n
}

// TestStaleCopiesNeverRewritten is the property the old "VPackets are
// never recycled" rule protected, now that they are: masters go back on
// the free list at the cumulative ack and wire copies at the receiver,
// yet no packet a wire holds is ever rewritten, a copy that arrives after
// its PSN was acknowledged is harmless, and nothing reads a freed packet
// — on the request space in IRN and go-back-N modes and on the
// read-response space.
func TestStaleCopiesNeverRewritten(t *testing.T) {
	for _, gbn := range []bool{false, true} {
		t.Run(fmt.Sprintf("GoBackN=%v", gbn), func(t *testing.T) { staleCopies(t, gbn) })
	}
}

func staleCopies(t *testing.T, goBackN bool) {
	const (
		mtu      = 1000
		messages = 600 // WRITE, WRITE_IMM, READ, SEND in rotation
		inFlight = 8
		slots    = 16 // more than inFlight: a slot is rewritten only after its last write completed
		slotLen  = 4096
		dataLen  = 3500
		readLen  = 5 * mtu
	)
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.MTU, cfg.BDPCap, cfg.GoBackN = mtu, 32, goBackN
	var a, b *QP
	cqA, cqB := &CQ{}, &CQ{}
	memB := NewMemory()
	region := make([]byte, slots*slotLen)
	source := fill(64*1024, 5) // what READs fetch; never written
	memB.Register(7, region)
	memB.Register(8, source)
	rng := sim.NewRNG(sim.DeriveSeed(11, "stale", 0))
	ab := &staleWire{t: t, eng: eng, rng: rng, to: &b}
	ba := &staleWire{t: t, eng: eng, rng: rng, to: &a}
	a = NewQP("a", eng, cfg, ab, NewMemory(), cqA)
	b = NewQP("b", eng, cfg, ba, memB, cqB)

	pattern := func(i int) []byte { return fill(dataLen, byte(i*13)) }
	slotOf := func(i int) int { return (i % slots) * slotLen }
	readVA := func(i int) uint64 { return uint64(i*97) % uint64(len(source)-readLen) }

	// Responder completions: WRITE_IMMs (i%4 == 1) and SENDs (i%4 == 3),
	// exactly once and in posted order, bytes checked as each completes.
	recvBufs := make([][]byte, inFlight)
	for k := range recvBufs {
		recvBufs[k] = make([]byte, slotLen)
		b.PostRecv(uint64(k), recvBufs[k])
	}
	recvDone := 0
	cqB.OnComplete(func(e CQE) {
		i := int(e.Imm)
		if want := 2*recvDone + 1; i != want || !e.Receive || int(e.WQEID) != recvDone%inFlight {
			t.Fatalf("responder completion %d: message %d on WQE %d, want message %d", recvDone, i, e.WQEID, want)
		}
		landed := region[slotOf(i):][:dataLen]
		if i%4 == 3 {
			landed = recvBufs[e.WQEID][:dataLen]
		}
		if e.Len != dataLen || !bytes.Equal(landed, pattern(i)) {
			t.Fatalf("message %d landed the wrong bytes at the responder", i)
		}
		recvDone++
		b.PostRecv(e.WQEID, recvBufs[e.WQEID])
	})

	// Requester: a closed loop. Reads complete on data and the rest on
	// acknowledgement, in posted order within each kind.
	posted, completed, ackedDone, readsDone := 0, 0, 0, 0
	locals := map[int][]byte{}
	post := func() {
		i := posted
		posted++
		req := Request{ID: uint64(i), Imm: uint32(i), RKey: 7, VA: uint64(slotOf(i))}
		switch i % 4 {
		case 0:
			req.Op, req.Data = OpWrite, pattern(i)
		case 1:
			req.Op, req.Data = OpWriteImm, pattern(i)
		case 2:
			locals[i] = make([]byte, readLen)
			req.Op, req.Local, req.RKey, req.VA = OpRead, locals[i], 8, readVA(i)
		case 3:
			req.Op, req.Data = OpSend, pattern(i)
		}
		if err := a.PostSend(req); err != nil {
			t.Fatal(err)
		}
	}
	cqA.OnComplete(func(e CQE) {
		i := int(e.WQEID)
		want := ackedDone/3*4 + ackedDone%3 + ackedDone%3/2 // 0, 1, 3, 4, 5, 7, ...
		switch {
		case e.Op == OpRead:
			want = 4*readsDone + 2
			readsDone++
			if va := readVA(i); !bytes.Equal(locals[i], source[va:va+readLen]) {
				t.Fatalf("READ %d returned the wrong bytes", i)
			}
			delete(locals, i)
		default:
			ackedDone++
			if e.Op == OpWrite && !bytes.Equal(region[slotOf(i):][:dataLen], pattern(i)) {
				t.Fatalf("WRITE %d landed the wrong bytes", i)
			}
		}
		if i != want || e.Status != StatusOK {
			t.Fatalf("requester completion of WQE %d (%v, %v), want WQE %d", i, e.Op, e.Status, want)
		}
		completed++
		if posted < messages {
			post()
		}
	})
	for posted < inFlight {
		post()
	}

	poison := bytes.Repeat([]byte{0xa5}, 2*mtu)
	scribbled := 0
	for deadline := sim.Time(10 * sim.Second); completed < messages; {
		at, ok := eng.NextEventTime()
		if !ok || at > deadline {
			t.Fatalf("stalled at %v: %d of %d messages completed", eng.Now(), completed, messages)
		}
		eng.RunUntil(at)
		scribbled += scribble(t, a, poison) + scribble(t, b, poison)
	}
	eng.RunUntil(eng.Now().Add(20 * cfg.RTOHigh))
	if eng.Pending() != 0 {
		t.Errorf("%d events pending long after completion: a timer never stopped", eng.Pending())
	}
	if completed != messages || recvDone != messages/2 {
		t.Errorf("%d requester and %d responder completions, want %d and %d", completed, recvDone, messages, messages/2)
	}
	if ab.late == 0 || ba.late == 0 {
		t.Errorf("%d request and %d read-response copies arrived after their PSN was acknowledged; the wire held none long enough", ab.late, ba.late)
	}
	if a.Retransmits == 0 || b.Retransmits == 0 {
		t.Error("no retransmissions: the link was not adversarial")
	}
	if scribbled == 0 {
		t.Error("the free lists were always empty: nothing was recycled")
	}
}
