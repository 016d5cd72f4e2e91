package verbs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/irnsim/irn/internal/fifo"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// loopWire is a Wire between two QPs on one engine: packets queue and
// arrive one link delay later through a typed event, each delivered once
// and then released to the receiver, so a delivery allocates nothing in
// the wire itself and an allocation count is the QPs' own.
type loopWire struct {
	eng  *sim.Engine
	peer *QP
	q    fifo.Queue[*VPacket]
}

func (w *loopWire) Send(p *VPacket) {
	w.q.Push(p)
	w.eng.AfterEvent(2*sim.Microsecond, w, 0, 0)
}

func (w *loopWire) HandleEvent(uint8, uint64) {
	p := w.q.Pop()
	w.peer.Receive(p, w.eng.Now())
	w.peer.Release(p)
}

// TestMessageAllocsBudget pins the steady-state allocation cost of one
// message through a QP pair over a releasing wire: WQEs and packets come
// off free lists (masters return at the cumulative ack, wire copies and
// acks at the receiver), Receive WQEs and staged CQEs live by value in
// rings, and the queues keep their arrays, so a message allocates nothing
// however many packets and acks it takes.
func TestMessageAllocsBudget(t *testing.T) {
	eng := sim.NewEngine()
	ab, ba := &loopWire{eng: eng}, &loopWire{eng: eng}
	memB := NewMemory()
	cqA, cqB := &CQ{}, &CQ{}
	a := NewQP("a", eng, DefaultConfig(), ab, NewMemory(), cqA)
	b := NewQP("b", eng, DefaultConfig(), ba, memB, cqB)
	ab.peer, ba.peer = b, a
	done := 0
	cqA.OnComplete(func(e CQE) {
		if e.Status == StatusOK {
			done++
		}
	})
	cqB.OnComplete(func(CQE) {})
	memB.Register(1, make([]byte, 2048))

	msg, buf, frame := make([]byte, 64), make([]byte, 64), make([]byte, 2048)
	const batch = 256
	for _, tc := range []struct {
		name string
		req  Request
		buf  []byte
	}{
		{"64B-SEND", Request{Op: OpSend, Data: msg}, buf},
		{"2KB-WRITE_IMM", Request{Op: OpWriteImm, Data: frame, RKey: 1, Imm: 7}, nil},
	} {
		run := func() {
			for i := 0; i < batch; i++ {
				b.PostRecv(uint64(i), tc.buf)
				if err := a.PostSend(tc.req); err != nil {
					t.Fatal(err)
				}
				eng.Run()
			}
		}
		run() // warm the queues and rings to their steady size
		done = 0
		perMsg := testing.AllocsPerRun(4, run) / batch
		t.Logf("%s: %.3f allocs/message", tc.name, perMsg)
		if done != 5*batch {
			t.Fatalf("%s: %d of %d messages completed", tc.name, done, 5*batch)
		}
		if perMsg > 0.05 {
			t.Errorf("%s: %.2f allocs/message, budget 0.05", tc.name, perMsg)
		}
	}
}

func TestNewQPRejectsBDPCapBeyondWindow(t *testing.T) {
	mk := func(bdpCap int) (err any) {
		defer func() { err = recover() }()
		cfg := DefaultConfig()
		cfg.BDPCap = bdpCap
		NewQP("q", sim.NewEngine(), cfg, WireFunc(func(*VPacket) {}), NewMemory(), &CQ{})
		return nil
	}
	if err := mk(PSNWindow); err != nil {
		t.Errorf("BDPCap == PSNWindow rejected: %v", err)
	}
	err := mk(PSNWindow + 1)
	if msg, _ := err.(string); !strings.Contains(msg, "BDPCap") {
		t.Errorf("BDPCap > PSNWindow: got %v, want a panic naming BDPCap", err)
	}
}

// TestNewQPFootprint pins what a QP costs to build at kv's BDP cap on
// k=6 (113 packets, W = 128): its request-space rings are sized by W and
// its read-response rings are not made at all, so a ring of PSNWindow
// slots coming back (≈ 176 KB per QP) fails.
func TestNewQPFootprint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BDPCap = 113
	eng, wire := sim.NewEngine(), WireFunc(func(*VPacket) {})
	const n = 32
	qps := make([]*QP, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range qps {
		qps[i] = NewQPOn("q", eng, nil, cfg, wire, NewMemory(), &CQ{})
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("NewQPOn at BDPCap %d: %d bytes; QP by value: %d bytes", cfg.BDPCap, per, unsafe.Sizeof(QP{}))
	if per >= 16<<10 {
		t.Errorf("NewQPOn at BDPCap %d allocates %d bytes, budget 16 KB", cfg.BDPCap, per)
	}
	if q := qps[0]; len(q.tx.pend) != 128 || len(q.staged) != 128 || q.rx.Cap() != 128 {
		t.Errorf("request rings of %d, %d and %d slots, want 128", len(q.tx.pend), len(q.staged), q.rx.Cap())
	}
}

// TestArrivalWPastCumulativeDropped: the responder accepts a request
// packet W-1 past its cumulative point and refuses, and counts, one W
// past, without placing or answering it. W is 32, below the 64 bits a
// bitmap holds at least, so the refusal is the window's, not the
// bitmap's.
func TestArrivalWPastCumulativeDropped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BDPCap = 20 // W = 32
	var answers int
	mem := NewMemory()
	region := make([]byte, 8)
	mem.Register(1, region)
	b := NewQP("b", sim.NewEngine(), cfg, WireFunc(func(*VPacket) { answers++ }), mem, &CQ{})
	write := func(psn uint32, v byte) *VPacket {
		return &VPacket{
			BTH:     packet.BTH{Opcode: packet.OpWriteOnly, PSN: psn},
			RETH:    packet.RETH{VA: uint64(v), RKey: 1, DMALen: 1},
			Payload: []byte{v},
		}
	}
	b.Receive(write(32, 1), 0)
	if b.Drops != 1 || answers != 0 || region[1] != 0 {
		t.Fatalf("PSN W past the cumulative point: %d drops, %d answers, placed %v", b.Drops, answers, region[1] != 0)
	}
	b.Receive(write(31, 2), 0)
	if b.Drops != 1 || answers != 1 || region[2] != 2 {
		t.Fatalf("PSN W-1 past the cumulative point: %d drops, %d answers, placed %v", b.Drops, answers, region[2] != 0)
	}
	if b.Expected() != 0 {
		t.Fatalf("expected PSN %d after out-of-order arrivals, want 0", b.Expected())
	}
}

// TestMismatchedBDPCapsComplete runs Writes both ways between a QP whose
// cap (200, W = 256) exceeds its peer's window (cap 20, W = 32) over an
// adversarial link: the peer refuses what lands past its window, and
// recovery still completes every Write exactly once, in order, with its
// bytes in place.
func TestMismatchedBDPCapsComplete(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(sim.DeriveSeed(5, "mismatch", 0))
	var a, b *QP
	cfgA, cfgB := DefaultConfig(), DefaultConfig()
	cfgA.BDPCap, cfgB.BDPCap = 200, 20
	memA, memB := NewMemory(), NewMemory()
	cqA, cqB := &CQ{}, &CQ{}
	a = NewQP("a", eng, cfgA, &chaosWire{eng: eng, rng: rng, to: &b}, memA, cqA)
	b = NewQP("b", eng, cfgB, &chaosWire{eng: eng, rng: rng, to: &a}, memB, cqB)
	const (
		writes   = 200
		size     = 16 * 1000 // 16 packets
		inFlight = 8
	)
	for _, dir := range []struct {
		name     string
		src, dst *QP
		cq       *CQ
		mem      *Memory
	}{{"a→b", a, b, cqA, memB}, {"b→a", b, a, cqB, memA}} {
		region := make([]byte, inFlight*size)
		dir.mem.Register(9, region)
		posted, done := 0, 0
		post := func() {
			i := posted
			posted++
			req := Request{ID: uint64(i), Op: OpWrite, Data: fill(size, byte(i)), RKey: 9, VA: uint64(i%inFlight) * size}
			if err := dir.src.PostSend(req); err != nil {
				t.Fatal(err)
			}
		}
		dir.cq.OnComplete(func(e CQE) {
			if e.Status != StatusOK || int(e.WQEID) != done {
				t.Fatalf("%s: completion %+v, want WQE %d", dir.name, e, done)
			}
			at := done % inFlight * size
			if !bytes.Equal(region[at:at+size], fill(size, byte(done))) {
				t.Fatalf("%s: Write %d landed the wrong bytes", dir.name, done)
			}
			done++
			if posted < writes {
				post()
			}
		})
		for posted < inFlight {
			post()
		}
		eng.RunUntil(eng.Now().Add(10 * sim.Second))
		if done != writes {
			t.Fatalf("%s: %d of %d Writes completed", dir.name, done, writes)
		}
	}
	if b.Drops == 0 {
		t.Error("the small-window responder refused nothing: the caps never mismatched")
	}
}

// TestReadStateMadeOnFirstRead: a QP pair exchanging only Writes and
// Sends holds no read-response rings; the first Read makes the
// requester's arrival bitmap and the responder's retained-packet ring.
func TestReadStateMadeOnFirstRead(t *testing.T) {
	pp, a, b, _, _, _, memB := newPipe(t)
	memB.Register(1, fill(4096, 3))
	b.PostRecv(0, make([]byte, 64))
	if err := a.PostSend(Request{Op: OpWrite, Data: fill(3000, 1), RKey: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.PostSend(Request{Op: OpSend, Data: fill(64, 2)}); err != nil {
		t.Fatal(err)
	}
	pp.run()
	for _, q := range []*QP{a, b} {
		if q.rrx != nil || q.rtx.pend != nil {
			t.Fatalf("%s holds read-response state without a Read", q.name)
		}
	}
	if err := a.PostSend(Request{Op: OpRead, RKey: 1, Local: make([]byte, 2000)}); err != nil {
		t.Fatal(err)
	}
	pp.run()
	if a.rrx == nil || b.rtx.pend == nil || a.rtx.pend != nil || b.rrx != nil {
		t.Fatal("after one Read, want exactly the requester's arrival bitmap and the responder's ring")
	}
}

// TestRecvRingGrowsAndWraps drives the Receive WQE ring through growth
// with a non-zero base and through out-of-order consumption.
func TestRecvRingGrowsAndWraps(t *testing.T) {
	var r wqeRing
	for sn := uint32(0); sn < 5; sn++ {
		r.post(RecvWQE{ID: uint64(sn)})
	}
	r.consume(1) // out of order: base must wait for 0
	if r.base != 0 || r.available(1) || !r.available(0) {
		t.Fatalf("after consume(1): base %d, available(1) %v", r.base, r.available(1))
	}
	r.consume(0)
	if r.base != 2 {
		t.Fatalf("base %d after the prefix was consumed, want 2", r.base)
	}
	for sn := uint32(5); sn < 40; sn++ { // grows 8 → 64 with base = 2
		r.post(RecvWQE{ID: uint64(sn)})
	}
	for sn := uint32(0); sn < 45; sn++ {
		w, ok := r.get(sn)
		if want := sn >= 2 && sn < 40; ok != want || (ok && w.ID != uint64(sn)) {
			t.Fatalf("get(%d) = %+v, %v", sn, w, ok)
		}
	}
	for sn := uint32(2); sn < 40; sn++ {
		r.consume(sn)
		r.post(RecvWQE{ID: uint64(sn + 38)})
	}
	if len(r.slots) != 64 || r.base != 40 || r.next != 78 {
		t.Fatalf("steady repost grew the ring: %d slots, [%d,%d)", len(r.slots), r.base, r.next)
	}
}

// chaosWire is the adversarial link of internal/recovery's grid for an
// in-package test: every packet is delivered zero, one or two times,
// each copy after its own random delay (jitter reorders; a few are held
// back past RTOLow).
type chaosWire struct {
	eng     *sim.Engine
	rng     *sim.RNG
	to      **QP
	observe func(p *VPacket)          // at transmission
	arrive  func(p *VPacket, dst *QP) // before each delivery
}

func (w *chaosWire) Send(p *VPacket) {
	if w.observe != nil {
		w.observe(p)
	}
	if w.rng.Float64() < 0.05 {
		return
	}
	copies := 1
	if w.rng.Float64() < 0.03 {
		copies = 2
	}
	for ; copies > 0; copies-- {
		d := 2*sim.Microsecond + sim.Duration(w.rng.Intn(3000))*sim.Nanosecond
		if w.rng.Float64() < 0.02 {
			d += sim.Duration(w.rng.Intn(150)) * sim.Microsecond
		}
		w.eng.After(d, func() {
			if w.arrive != nil {
				w.arrive(p, *w.to)
			}
			(*w.to).Receive(p, w.eng.Now())
		})
	}
}

// TestRingsWrapUnderAdversarialLink pushes three windows' worth of PSNs
// on both PSN spaces through one QP pair over a link that drops,
// duplicates, delays and reorders, so every slot of the retained-packet,
// staged-CQE and Receive-WQE rings is reused at least twice: the request
// space's window W is the BDP cap rounded up to a power of two, the
// read-response space's PSNWindow. Every message completes exactly once
// and in order with its bytes intact, no request goes out beyond BDP-FC,
// and a copy of a request packet replayed W PSNs after it was
// acknowledged is re-ACKed and never placed. The caps give a W of 32, of
// 1, and one (113) the window rounds up.
func TestRingsWrapUnderAdversarialLink(t *testing.T) {
	for _, gbn := range []bool{false, true} {
		t.Run(fmt.Sprintf("GoBackN=%v", gbn), func(t *testing.T) {
			for _, bdpCap := range []int{32, 1, 113} {
				t.Run(fmt.Sprintf("BDPCap=%d", bdpCap), func(t *testing.T) { ringWrap(t, gbn, bdpCap) })
			}
		})
	}
}

func ringWrap(t *testing.T, goBackN bool, bdpCap int) {
	const (
		mtu      = 1000
		triples  = 3*PSNWindow/8 + 1 // each SEND+WRITE_IMM+READ triple is 8 sPSNs and 8 rPSNs
		messages = 3 * triples
		inFlight = 12 // messages outstanding
		recvs    = 16 // Receive WQEs posted
		sendLen  = 2500
		writeLen = 3500
		readLen  = 8 * mtu
		slots    = 4 // WRITE_IMM targets rotate over this many region slots
	)
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.MTU, cfg.BDPCap, cfg.GoBackN = mtu, bdpCap, goBackN
	w := uint32(psnWindow(bdpCap))
	var a, b *QP
	cqA, cqB := &CQ{}, &CQ{}
	memB := NewMemory()
	region := make([]byte, slots*4096)
	source := fill(64*1024, 5) // what READs fetch; never written
	memB.Register(7, region)
	memB.Register(8, source)

	pattern := func(i, n int) []byte { return fill(n, byte(i*13)) }
	readVA := func(i int) uint64 { return uint64(i*97) % uint64(len(source)-readLen) }

	// Requester → responder: BDP-FC is checked against the highest
	// cumulative ack delivered so far; one acknowledged last-packet is
	// kept aside to be replayed a window later.
	var reqCum uint32
	var stale *VPacket
	replays := 0
	rng := sim.NewRNG(sim.DeriveSeed(3, "ringwrap", 0))
	ab := &chaosWire{eng: eng, rng: rng, to: &b}
	ab.observe = func(p *VPacket) {
		if isAck(p.BTH.Opcode) {
			return // read (N)ACKs ride the rPSN space
		}
		if int(p.BTH.PSN-reqCum) >= bdpCap {
			t.Fatalf("request PSN %d sent with cumulative ack %d: beyond the cap %d", p.BTH.PSN, reqCum, bdpCap)
		}
		if stale == nil && p.BTH.Opcode.IsLast() && len(p.Payload) > 0 {
			stale = p
		}
	}
	var acksFromB int
	var lastFromB *VPacket
	ba := &chaosWire{eng: eng, rng: rng, to: &a}
	ba.observe = func(p *VPacket) { acksFromB++; lastFromB = p }
	ba.arrive = func(p *VPacket, _ *QP) {
		if op := p.BTH.Opcode; (op == packet.OpAcknowledge || op == packet.OpAtomicAcknowledge) && p.BTH.PSN > reqCum {
			reqCum = p.BTH.PSN
		}
	}
	a = NewQP("a", eng, cfg, ab, NewMemory(), cqA)
	b = NewQP("b", eng, cfg, ba, memB, cqB)

	// Responder completions: SENDs and WRITE_IMMs, in posted order, each
	// checked against its bytes the moment it completes.
	recvBufs := make([][]byte, recvs)
	for k := range recvBufs {
		recvBufs[k] = make([]byte, 4096)
		b.PostRecv(uint64(k), recvBufs[k])
	}
	nextRecv := 0 // index among the messages that complete at the responder
	cqB.OnComplete(func(e CQE) {
		i := int(e.Imm) // the message index rides in the immediate
		if want := nextRecv/2*3 + nextRecv%2; i != want || !e.Receive {
			t.Fatalf("responder completion %d is for message %d, want %d", nextRecv, i, want)
		}
		if int(e.WQEID) != nextRecv%recvs {
			t.Fatalf("responder completion %d consumed WQE %d, want %d", nextRecv, e.WQEID, nextRecv%recvs)
		}
		switch i % 3 {
		case 0:
			if e.Len != sendLen || !bytes.Equal(recvBufs[e.WQEID][:sendLen], pattern(i, sendLen)) {
				t.Fatalf("SEND %d landed the wrong bytes", i)
			}
		case 1:
			at := (i / 3 % slots) * 4096
			if !bytes.Equal(region[at:at+writeLen], pattern(i, writeLen)) {
				t.Fatalf("WRITE_IMM %d landed the wrong bytes", i)
			}
		}
		nextRecv++
		b.PostRecv(e.WQEID, recvBufs[e.WQEID])
	})

	// Requester: a closed loop keeping inFlight messages posted. Reads
	// complete on data and the rest on acknowledgement, so completions are
	// in posted order within each of the two kinds.
	posted, completed := 0, 0
	var sendsDone, readsDone int
	locals := map[int][]byte{}
	post := func() {
		i := posted
		posted++
		req := Request{ID: uint64(i), Imm: uint32(i)}
		switch i % 3 {
		case 0:
			req.Op, req.Data = OpSend, pattern(i, sendLen)
		case 1:
			req.Op, req.Data = OpWriteImm, pattern(i, writeLen)
			req.RKey, req.VA = 7, uint64(i/3%slots)*4096
		case 2:
			locals[i] = make([]byte, readLen)
			req.Op, req.Local = OpRead, locals[i]
			req.RKey, req.VA = 8, readVA(i)
		}
		if err := a.PostSend(req); err != nil {
			t.Fatal(err)
		}
	}
	cqA.OnComplete(func(e CQE) {
		i := int(e.WQEID)
		want := sendsDone/2*3 + sendsDone%2
		if e.Op == OpRead {
			want = 3*readsDone + 2
			readsDone++
			if va := readVA(i); !bytes.Equal(locals[i], source[va:va+readLen]) {
				t.Fatalf("READ %d returned the wrong bytes", i)
			}
			delete(locals, i)
		} else {
			sendsDone++
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

	for deadline := sim.Time(10 * sim.Second); completed < messages; {
		at, ok := eng.NextEventTime()
		if !ok || at > deadline {
			t.Fatalf("stalled at %v: %d of %d messages completed", eng.Now(), completed, messages)
		}
		eng.RunUntil(at)
		// The kept packet is a full window behind: replay it.
		if stale != nil && b.Expected() >= stale.BTH.PSN+w {
			before := append([]byte(nil), region...)
			acks, recvDone, msn, drops := acksFromB, nextRecv, b.MSN(), b.Drops
			b.Receive(stale, eng.Now())
			if acksFromB != acks+1 || lastFromB.BTH.Opcode != packet.OpAcknowledge || lastFromB.BTH.PSN != b.Expected() {
				t.Fatalf("stale PSN %d (expected %d) was not answered with a cumulative ACK", stale.BTH.PSN, b.Expected())
			}
			if nextRecv != recvDone || b.MSN() != msn || b.Drops != drops || !bytes.Equal(region, before) {
				t.Fatalf("stale PSN %d (expected %d) was placed or completed again", stale.BTH.PSN, b.Expected())
			}
			stale = nil
			replays++
		}
	}
	eng.RunUntil(eng.Now().Add(20 * cfg.RTOHigh))
	if eng.Pending() != 0 {
		t.Errorf("%d events pending long after completion: a timer never stopped", eng.Pending())
	}
	if completed != messages || nextRecv != 2*triples {
		t.Errorf("%d requester and %d responder completions, want %d and %d", completed, nextRecv, messages, 2*triples)
	}
	if len(a.tx.pend) != int(w) || len(b.staged) != int(w) || len(b.rtx.pend) != PSNWindow {
		t.Errorf("rings of %d, %d and %d slots, want W = %d on requests and %d on responses",
			len(a.tx.pend), len(b.staged), len(b.rtx.pend), w, PSNWindow)
	}
	if a.tx.next < 3*w || b.rtx.next < 3*PSNWindow {
		t.Errorf("only %d sPSNs and %d rPSNs used; the rings did not wrap three times", a.tx.next, b.rtx.next)
	}
	if replays < 2 {
		t.Errorf("%d stale replays, want at least 2", replays)
	}
	if a.Retransmits == 0 || b.Retransmits == 0 {
		t.Error("no retransmissions: the link was not adversarial")
	}
}

// freeWQEs counts the QP's recycled Request WQEs; with nothing in flight
// it is every WQE the QP ever carved.
func freeWQEs(q *QP) int {
	n := 0
	for w := q.wqeFree; w != nil; w = w.next {
		n++
	}
	return n
}

// TestReadsOutDrainedAtCompletion: 10 000 sequential Reads and Atomics
// leave nothing behind in readsOut — at every CQE the map holds no more
// than the requests still outstanding — and every one of them ran on the
// same few recycled WQEs.
func TestReadsOutDrainedAtCompletion(t *testing.T) {
	eng := sim.NewEngine()
	ab, ba := &loopWire{eng: eng}, &loopWire{eng: eng}
	memB := NewMemory()
	cqA, cqB := &CQ{}, &CQ{}
	a := NewQP("a", eng, DefaultConfig(), ab, NewMemory(), cqA)
	b := NewQP("b", eng, DefaultConfig(), ba, memB, cqB)
	ab.peer, ba.peer = b, a
	src := fill(2500, 3)
	memB.Register(1, src)
	memB.Register(2, make([]byte, 8))

	posted, done, worst := 0, 0, 0
	cqA.OnComplete(func(e CQE) {
		if e.Status != StatusOK {
			t.Fatalf("CQE %+v", e)
		}
		done++
		worst = max(worst, len(a.readsOut)-(posted-done))
	})
	dst := make([]byte, len(src))
	for i := 0; i < 10_000; i++ {
		// Mostly one at a time; every so often a burst, so completions
		// arrive with later reads still outstanding.
		burst := 1
		if i%100 == 0 {
			burst = 5
		}
		for k := 0; k < burst; k++ {
			req := Request{ID: uint64(i), Op: OpRead, RKey: 1, Local: dst}
			if (i+k)%3 == 0 {
				req = Request{ID: uint64(i), Op: OpFetchAdd, RKey: 2, Add: 1}
			}
			if err := a.PostSend(req); err != nil {
				t.Fatal(err)
			}
			posted++
		}
		eng.Run()
		if len(a.readsOut) != 0 {
			t.Fatalf("after request %d: %d entries left in readsOut", i, len(a.readsOut))
		}
	}
	if done != posted || worst > 0 {
		t.Fatalf("%d of %d completed; readsOut exceeded the outstanding count by %d", done, posted, worst)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("read data mismatch")
	}
	if n := freeWQEs(a); n > 8 {
		t.Errorf("%d requests carved %d WQEs", posted, n)
	}
}

// TestRequestWQEsRecycled: the number of Request WQEs a QP carves stops
// growing once its in-flight depth has been reached — 300 requests and
// 10 000 carve the same handful — across Writes, Sends, Reads, Atomics and
// fenced requests, on a lossy link, with the completion callback posting
// the next request from inside the CQE (which must not be handed the WQE
// whose completion it is consuming).
func TestRequestWQEsRecycled(t *testing.T) {
	carved := func(total int) int {
		pp, a, b, cqA, cqB, _, memB := newPipe(t)
		n := 0
		pp.intercept = func(*VPacket) (bool, sim.Duration) {
			n++
			return n%13 == 0, 0
		}
		memB.Register(1, make([]byte, 4096))
		memB.Register(2, make([]byte, 8))
		cqB.OnComplete(func(CQE) { b.PostRecv(0, make([]byte, 4096)) })
		for i := 0; i < 16; i++ {
			b.PostRecv(0, make([]byte, 4096))
		}
		payload, dst := fill(2500, 9), make([]byte, 2500)
		next, done := 0, 0
		seen := make([]bool, total)
		post := func() {
			if next == total {
				return
			}
			req := Request{ID: uint64(next), Data: payload, RKey: 1, Imm: uint32(next)}
			switch next % 5 {
			case 0:
				req.Op = OpWrite
			case 1:
				req.Op = OpSend
			case 2:
				req.Op, req.Data, req.Local = OpRead, nil, dst
			case 3:
				req.Op, req.Data, req.RKey, req.Add = OpFetchAdd, nil, 2, 1
			case 4:
				req.Op, req.Fence = OpWriteImm, next%10 == 4
			}
			next++
			if err := a.PostSend(req); err != nil {
				t.Fatal(err)
			}
		}
		cqA.OnComplete(func(e CQE) {
			if e.Status != StatusOK || seen[e.WQEID] || e.Op != []OpType{OpWrite, OpSend, OpRead, OpFetchAdd, OpWriteImm}[e.WQEID%5] {
				t.Fatalf("bad or repeated completion %+v", e)
			}
			seen[e.WQEID] = true
			done++
			post() // re-entrant: admits while the completing WQE is still in use
		})
		for i := 0; i < 4; i++ {
			post() // four requests in flight throughout
		}
		pp.run()
		if done != total {
			t.Fatalf("%d of %d requests completed", done, total)
		}
		if a.reqWQEs.Len() != 0 || len(a.readsOut) != 0 {
			t.Fatalf("left over: %d WQEs queued, %d reads out", a.reqWQEs.Len(), len(a.readsOut))
		}
		return freeWQEs(a)
	}
	few, many := carved(300), carved(10_000)
	t.Logf("WQEs carved: %d for 300 requests, %d for 10 000", few, many)
	if many != few || many > 16 {
		t.Errorf("WQEs carved grew with the request count: %d for 300, %d for 10 000", few, many)
	}
}
