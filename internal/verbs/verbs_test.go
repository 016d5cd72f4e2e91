package verbs

import (
	"bytes"
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// pipe wires two QPs over the engine with a fixed delay and optional
// per-packet interference (drop / delay jitter), exercising loss and
// reordering paths deterministically.
type pipe struct {
	eng   *sim.Engine
	delay sim.Duration
	// intercept may return (drop, extraDelay).
	intercept func(p *VPacket) (bool, sim.Duration)
	a, b      *QP
	sentAB    int
	sentBA    int
}

func newPipe(t *testing.T) (*pipe, *QP, *QP, *CQ, *CQ, *Memory, *Memory) {
	t.Helper()
	eng := sim.NewEngine()
	pp := &pipe{eng: eng, delay: 2 * sim.Microsecond}
	memA, memB := NewMemory(), NewMemory()
	cqA, cqB := &CQ{}, &CQ{}
	cfg := DefaultConfig()
	pp.a = NewQP("A", eng, cfg, WireFunc(func(p *VPacket) { pp.deliver(p, true) }), memA, cqA)
	pp.b = NewQP("B", eng, cfg, WireFunc(func(p *VPacket) { pp.deliver(p, false) }), memB, cqB)
	return pp, pp.a, pp.b, cqA, cqB, memA, memB
}

func (pp *pipe) deliver(p *VPacket, fromA bool) {
	if fromA {
		pp.sentAB++
	} else {
		pp.sentBA++
	}
	d := pp.delay
	if pp.intercept != nil {
		drop, extra := pp.intercept(p)
		if drop {
			return
		}
		d += extra
	}
	dst := pp.a
	if fromA {
		dst = pp.b
	}
	pp.eng.After(d, func() { dst.Receive(p, pp.eng.Now()) })
}

func (pp *pipe) run() { pp.eng.RunUntil(sim.Time(sim.Second)) }

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestWriteDeliversBytes(t *testing.T) {
	pp, a, _, cqA, _, _, memB := newPipe(t)
	dst := make([]byte, 8192)
	memB.Register(7, dst)
	data := fill(5000, 3)
	if err := a.PostSend(Request{ID: 1, Op: OpWrite, Data: data, RKey: 7, VA: 100}); err != nil {
		t.Fatal(err)
	}
	pp.run()
	if !bytes.Equal(dst[100:100+len(data)], data) {
		t.Fatal("write payload mismatch")
	}
	cqes := cqA.Poll()
	if len(cqes) != 1 || cqes[0].WQEID != 1 || cqes[0].Op != OpWrite {
		t.Fatalf("requester CQEs: %+v", cqes)
	}
	if a.MSN() != 0 && pp.b.MSN() != 1 {
		t.Errorf("responder MSN = %d, want 1", pp.b.MSN())
	}
}

func TestWriteWithImmediateConsumesRecvWQE(t *testing.T) {
	pp, a, b, cqA, cqB, _, memB := newPipe(t)
	dst := make([]byte, 4096)
	memB.Register(7, dst)
	b.PostRecv(100, nil) // Write-with-imm needs a Receive WQE for the CQE
	data := fill(2500, 1)
	a.PostSend(Request{ID: 2, Op: OpWriteImm, Data: data, RKey: 7, VA: 0, Imm: 0xfeed})
	pp.run()
	if !bytes.Equal(dst[:len(data)], data) {
		t.Fatal("payload mismatch")
	}
	got := cqB.Poll()
	if len(got) != 1 || got[0].Imm != 0xfeed || !got[0].Receive || got[0].WQEID != 100 {
		t.Fatalf("responder CQE: %+v", got)
	}
	if len(cqA.Poll()) != 1 {
		t.Fatal("requester completion missing")
	}
}

func TestSendPlacesIntoRecvBuffer(t *testing.T) {
	pp, a, b, _, cqB, _, _ := newPipe(t)
	buf := make([]byte, 4096)
	b.PostRecv(200, buf)
	data := fill(3000, 9)
	a.PostSend(Request{ID: 3, Op: OpSend, Data: data, Imm: 0xabc})
	pp.run()
	if !bytes.Equal(buf[:len(data)], data) {
		t.Fatal("send payload mismatch")
	}
	got := cqB.Poll()
	if len(got) != 1 || got[0].WQEID != 200 || got[0].Len != 3000 {
		t.Fatalf("responder CQE: %+v", got)
	}
}

func TestSendsConsumeRecvWQEsInOrder(t *testing.T) {
	pp, a, b, _, cqB, _, _ := newPipe(t)
	bufs := [][]byte{make([]byte, 2000), make([]byte, 2000), make([]byte, 2000)}
	for i, buf := range bufs {
		b.PostRecv(uint64(300+i), buf)
	}
	for i := 0; i < 3; i++ {
		a.PostSend(Request{ID: uint64(10 + i), Op: OpSend, Data: fill(1500, byte(i))})
	}
	pp.run()
	got := cqB.Poll()
	if len(got) != 3 {
		t.Fatalf("CQEs = %d", len(got))
	}
	for i, c := range got {
		if c.WQEID != uint64(300+i) {
			t.Errorf("CQE %d consumed WQE %d, want %d (posted order)", i, c.WQEID, 300+i)
		}
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i][:1500], fill(1500, byte(i))) {
			t.Errorf("buffer %d payload mismatch", i)
		}
	}
}

func TestReadReturnsData(t *testing.T) {
	pp, a, _, cqA, _, _, memB := newPipe(t)
	src := fill(6000, 5)
	memB.Register(9, src)
	dst := make([]byte, 6000)
	a.PostSend(Request{ID: 4, Op: OpRead, RKey: 9, VA: 0, Local: dst})
	pp.run()
	if !bytes.Equal(dst, src) {
		t.Fatal("read data mismatch")
	}
	got := cqA.Poll()
	if len(got) != 1 || got[0].Op != OpRead {
		t.Fatalf("CQE: %+v", got)
	}
}

func TestFetchAddAtomicity(t *testing.T) {
	pp, a, _, cqA, _, _, memB := newPipe(t)
	word := make([]byte, 8)
	memB.Register(11, word)
	memB.WriteWord(11, 0, 40)
	a.PostSend(Request{ID: 5, Op: OpFetchAdd, RKey: 11, VA: 0, Add: 2})
	pp.run()
	v, _ := memB.ReadWord(11, 0)
	if v != 42 {
		t.Errorf("word = %d, want 42", v)
	}
	got := cqA.Poll()
	if len(got) != 1 || got[0].Atomic != 40 {
		t.Fatalf("atomic CQE: %+v (want original 40)", got)
	}
}

func TestCmpSwap(t *testing.T) {
	pp, a, _, cqA, _, _, memB := newPipe(t)
	word := make([]byte, 8)
	memB.Register(12, word)
	memB.WriteWord(12, 0, 7)
	a.PostSend(Request{ID: 6, Op: OpCmpSwap, RKey: 12, VA: 0, Cmp: 7, Swap: 99})
	a.PostSend(Request{ID: 7, Op: OpCmpSwap, RKey: 12, VA: 0, Cmp: 7, Swap: 1234})
	pp.run()
	v, _ := memB.ReadWord(12, 0)
	if v != 99 {
		t.Errorf("word = %d, want 99 (second CAS must fail)", v)
	}
	got := cqA.Poll()
	if len(got) != 2 {
		t.Fatalf("CQEs = %d", len(got))
	}
	if got[0].Atomic != 7 || got[1].Atomic != 99 {
		t.Errorf("originals: %d, %d", got[0].Atomic, got[1].Atomic)
	}
}

func TestOutOfOrderPlacementDirectToMemory(t *testing.T) {
	// Reorder the middle of a write: data still lands correctly, and the
	// responder NACKs the out-of-order arrivals.
	pp, a, _, _, _, _, memB := newPipe(t)
	dst := make([]byte, 8192)
	memB.Register(7, dst)
	delayed := false
	pp.intercept = func(p *VPacket) (bool, sim.Duration) {
		if p.BTH.Opcode == packet.OpWriteFirst && !delayed {
			delayed = true
			return false, 50 * sim.Microsecond // first packet arrives last
		}
		return false, 0
	}
	data := fill(5000, 13)
	a.PostSend(Request{ID: 8, Op: OpWrite, Data: data, RKey: 7, VA: 0})
	pp.run()
	if !bytes.Equal(dst[:len(data)], data) {
		t.Fatal("OOO write payload mismatch")
	}
	if pp.b.MSN() != 1 {
		t.Errorf("MSN = %d", pp.b.MSN())
	}
}

func TestPrematureCQEHeldUntilInOrderPoint(t *testing.T) {
	// The last packet of a Send arrives before the others: the CQE must
	// not surface until every packet up to it has arrived (§5.3.3).
	pp, a, b, _, cqB, _, _ := newPipe(t)
	buf := make([]byte, 8192)
	b.PostRecv(400, buf)

	var lastArrived, firstArrived sim.Time
	pp.intercept = func(p *VPacket) (bool, sim.Duration) {
		switch p.BTH.Opcode {
		case packet.OpSendFirst:
			return false, 80 * sim.Microsecond
		case packet.OpSendLast:
			return false, 0
		}
		return false, 0
	}
	data := fill(5000, 21)
	a.PostSend(Request{ID: 9, Op: OpSend, Data: data})
	// Track CQE timing by polling at two instants.
	pp.eng.Schedule(sim.Time(40*sim.Microsecond), func() {
		if cqB.Len() > 0 {
			t.Error("CQE surfaced before the first packet arrived (premature CQE leaked)")
		}
		lastArrived = pp.eng.Now()
	})
	pp.run()
	if cqB.Len() != 1 {
		t.Fatalf("CQEs = %d", cqB.Len())
	}
	if !bytes.Equal(buf[:len(data)], data) {
		t.Fatal("payload mismatch")
	}
	_ = lastArrived
	_ = firstArrived
}

func TestLossRecoverySelectiveRetransmit(t *testing.T) {
	pp, a, _, cqA, _, _, memB := newPipe(t)
	dst := make([]byte, 20000)
	memB.Register(7, dst)
	dropped := 0
	pp.intercept = func(p *VPacket) (bool, sim.Duration) {
		// Drop two specific write packets once each.
		if (p.BTH.PSN == 3 || p.BTH.PSN == 7) &&
			p.BTH.Opcode >= packet.OpWriteFirst && p.BTH.Opcode <= packet.OpWriteOnlyImm && dropped < 2 {
			if p.BTH.PSN == 3 && dropped == 0 {
				dropped++
				return true, 0
			}
			if p.BTH.PSN == 7 && dropped == 1 {
				dropped++
				return true, 0
			}
		}
		return false, 0
	}
	data := fill(15000, 2)
	a.PostSend(Request{ID: 10, Op: OpWrite, Data: data, RKey: 7, VA: 0})
	pp.run()
	if !bytes.Equal(dst[:len(data)], data) {
		t.Fatal("payload mismatch after loss recovery")
	}
	if len(cqA.Poll()) != 1 {
		t.Fatal("completion missing")
	}
	if a.Retransmits == 0 {
		t.Error("expected retransmissions")
	}
}

func TestReadResponseLossRecovery(t *testing.T) {
	pp, a, b, cqA, _, _, memB := newPipe(t)
	src := fill(12000, 30)
	memB.Register(9, src)
	dst := make([]byte, 12000)
	droppedOnce := false
	pp.intercept = func(p *VPacket) (bool, sim.Duration) {
		if p.BTH.Opcode == packet.OpReadRespMiddle && !droppedOnce {
			droppedOnce = true
			return true, 0
		}
		return false, 0
	}
	a.PostSend(Request{ID: 11, Op: OpRead, RKey: 9, VA: 0, Local: dst})
	pp.run()
	if !bytes.Equal(dst, src) {
		t.Fatal("read data mismatch after response loss")
	}
	if len(cqA.Poll()) != 1 {
		t.Fatal("read completion missing")
	}
	if b.Retransmits == 0 {
		t.Error("responder should have retransmitted the lost response")
	}
}

func TestRandomLossAllOps(t *testing.T) {
	pp, a, b, cqA, cqB, memA, memB := newPipe(t)
	_ = memA
	dstW := make([]byte, 65536)
	memB.Register(7, dstW)
	srcR := fill(30000, 44)
	memB.Register(9, srcR)
	word := make([]byte, 8)
	memB.Register(11, word)

	rng := sim.NewRNG(77)
	pp.intercept = func(p *VPacket) (bool, sim.Duration) {
		if rng.Float64() < 0.03 {
			return true, 0
		}
		if rng.Float64() < 0.1 {
			return false, sim.Duration(rng.Intn(20)) * sim.Microsecond
		}
		return false, 0
	}

	recvBuf := make([]byte, 8192)
	b.PostRecv(500, recvBuf)

	writeData := fill(20000, 50)
	sendData := fill(6000, 60)
	readDst := make([]byte, 30000)
	a.PostSend(Request{ID: 20, Op: OpWrite, Data: writeData, RKey: 7, VA: 64})
	a.PostSend(Request{ID: 21, Op: OpSend, Data: sendData})
	a.PostSend(Request{ID: 22, Op: OpRead, RKey: 9, VA: 0, Local: readDst})
	a.PostSend(Request{ID: 23, Op: OpFetchAdd, RKey: 11, VA: 0, Add: 5})
	pp.run()

	if !bytes.Equal(dstW[64:64+len(writeData)], writeData) {
		t.Error("write corrupted under loss")
	}
	if !bytes.Equal(recvBuf[:len(sendData)], sendData) {
		t.Error("send corrupted under loss")
	}
	if !bytes.Equal(readDst, srcR) {
		t.Error("read corrupted under loss")
	}
	if v, _ := memB.ReadWord(11, 0); v != 5 {
		t.Errorf("atomic word = %d, want 5 (exactly-once)", v)
	}
	if got := len(cqA.Poll()); got != 4 {
		t.Errorf("requester CQEs = %d, want 4", got)
	}
	if got := len(cqB.Poll()); got != 1 {
		t.Errorf("responder CQEs = %d, want 1 (send)", got)
	}
}

func TestRNRNackAndRecovery(t *testing.T) {
	// Send arrives with no Receive WQE: RNR NACK, back-off, then success
	// once the WQE is posted (Appendix B.3).
	pp, a, b, _, cqB, _, _ := newPipe(t)
	data := fill(800, 70)
	a.PostSend(Request{ID: 30, Op: OpSend, Data: data})
	buf := make([]byte, 1024)
	pp.eng.Schedule(sim.Time(150*sim.Microsecond), func() {
		b.PostRecv(600, buf)
	})
	pp.run()
	if b.RNRNacks == 0 {
		t.Error("expected an RNR NACK")
	}
	got := cqB.Poll()
	if len(got) != 1 || got[0].WQEID != 600 {
		t.Fatalf("send never completed after RNR: %+v", got)
	}
	if !bytes.Equal(buf[:len(data)], data) {
		t.Error("payload mismatch")
	}
}

func TestSendWithInvalidateFences(t *testing.T) {
	// A Write followed by Send-with-Invalidate of the same rkey: the
	// invalidate must not revoke the region before the write lands
	// (Appendix B.5 fencing).
	pp, a, b, cqA, _, _, memB := newPipe(t)
	dst := make([]byte, 4096)
	memB.Register(7, dst)
	b.PostRecv(700, make([]byte, 64))

	data := fill(3000, 80)
	a.PostSend(Request{ID: 40, Op: OpWrite, Data: data, RKey: 7, VA: 0})
	a.PostSend(Request{ID: 41, Op: OpSendInv, Data: []byte("inv"), InvKey: 7})
	pp.run()
	if !bytes.Equal(dst[:len(data)], data) {
		t.Fatal("write lost despite fence")
	}
	if memB.Valid(7) {
		t.Error("rkey 7 should be invalidated")
	}
	if got := len(cqA.Poll()); got != 2 {
		t.Errorf("requester CQEs = %d", got)
	}
}

func TestSRQSharedAcrossArrivalOrder(t *testing.T) {
	// Appendix B.2: with an SRQ, WQEs are dequeued (and numbered) on
	// demand — a send packet with recv_WQE_SN 2 drains WQEs 0..2.
	pp, a, b, _, cqB, _, _ := newPipe(t)
	srq := NewSRQ()
	b.UseSRQ(srq)
	bufs := make([][]byte, 3)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
		srq.Post(uint64(800+i), bufs[i])
	}
	for i := 0; i < 3; i++ {
		a.PostSend(Request{ID: uint64(50 + i), Op: OpSend, Data: fill(1200, byte(90+i))})
	}
	pp.run()
	got := cqB.Poll()
	if len(got) != 3 {
		t.Fatalf("CQEs = %d", len(got))
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i][:1200], fill(1200, byte(90+i))) {
			t.Errorf("SRQ buffer %d mismatch", i)
		}
	}
	if srq.Pending() != 0 {
		t.Errorf("SRQ pending = %d", srq.Pending())
	}
}

func TestMSNTracksMessagesNotPackets(t *testing.T) {
	pp, a, _, _, _, _, memB := newPipe(t)
	memB.Register(7, make([]byte, 65536))
	// Three writes of different sizes: MSN must advance by exactly 3.
	for i, n := range []int{500, 5000, 12000} {
		a.PostSend(Request{ID: uint64(60 + i), Op: OpWrite, Data: fill(n, byte(i)), RKey: 7, VA: uint64(i * 16384)})
	}
	pp.run()
	if pp.b.MSN() != 3 {
		t.Errorf("MSN = %d, want 3", pp.b.MSN())
	}
}

func TestVPacketMarshalRoundTrip(t *testing.T) {
	p := &VPacket{
		BTH:     packet.BTH{Opcode: packet.OpWriteMiddle, PSN: 1234, AckReq: true},
		RETH:    packet.RETH{VA: 0xdead, RKey: 7, DMALen: 5000},
		Ext:     packet.IRNExt{WQESeq: 3, RelOffset: 2},
		AETH:    packet.AETH{Syndrome: packet.SyndromeAck, MSN: 9},
		Payload: fill(100, 1),
	}
	got, err := packet.UnmarshalVPacket(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.BTH != p.BTH || got.RETH != p.RETH || got.Ext != p.Ext || got.AETH != p.AETH {
		t.Errorf("header mismatch: %+v vs %+v", got, p)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Error("payload mismatch")
	}
}

func TestWireCodecSurvivesTransit(t *testing.T) {
	// Marshal/unmarshal every packet crossing the wire: header content
	// must survive byte-level encoding (the §5 packet format actually
	// carries everything needed).
	pp, a, _, cqA, _, _, memB := newPipe(t)
	dst := make([]byte, 8192)
	memB.Register(7, dst)
	pp.intercept = func(p *VPacket) (bool, sim.Duration) {
		enc := p.Marshal()
		dec, err := packet.UnmarshalVPacket(enc)
		if err != nil {
			t.Fatalf("codec: %v", err)
		}
		// Overwrite the in-flight packet's headers from the decoded
		// form; semantic fields like SackPSN/Imm ride outside the test
		// codec and are preserved.
		p.BTH, p.RETH, p.Ext, p.AETH = dec.BTH, dec.RETH, dec.Ext, dec.AETH
		p.Payload = dec.Payload
		return false, 0
	}
	data := fill(5000, 33)
	a.PostSend(Request{ID: 70, Op: OpWrite, Data: data, RKey: 7, VA: 0})
	pp.run()
	if !bytes.Equal(dst[:len(data)], data) {
		t.Fatal("payload corrupted through codec")
	}
	if len(cqA.Poll()) != 1 {
		t.Fatal("completion missing")
	}
}

func TestZeroLengthSend(t *testing.T) {
	// Zero-byte Sends are legal RDMA: they consume a Receive WQE and
	// deliver only the completion (often used as a doorbell).
	pp, a, b, _, cqB, _, _ := newPipe(t)
	b.PostRecv(900, make([]byte, 16))
	if err := a.PostSend(Request{ID: 80, Op: OpSend, Data: nil, Imm: 0x77}); err != nil {
		t.Fatal(err)
	}
	pp.run()
	got := cqB.Poll()
	if len(got) != 1 || got[0].WQEID != 900 || got[0].Imm != 0x77 {
		t.Fatalf("CQE: %+v", got)
	}
}

func TestInterleavedWriteAndRead(t *testing.T) {
	// A Read posted after a Write to the same region: both complete,
	// and the paper's completion semantics (Appendix B.1) hold — here we
	// use an explicit fence so the Read observes the Write.
	pp, a, _, cqA, _, _, memB := newPipe(t)
	region := make([]byte, 4096)
	memB.Register(7, region)
	data := fill(3000, 42)
	a.PostSend(Request{ID: 90, Op: OpWrite, Data: data, RKey: 7, VA: 0})
	dst := make([]byte, 3000)
	a.PostSend(Request{ID: 91, Op: OpRead, RKey: 7, VA: 0, Local: dst, Fence: true})
	pp.run()
	if !bytes.Equal(dst, data) {
		t.Fatal("fenced read did not observe the write")
	}
	if got := len(cqA.Poll()); got != 2 {
		t.Fatalf("CQEs = %d", got)
	}
}

func TestDuplicateReadRequestExecutesOnce(t *testing.T) {
	// Force the read request packet to be retransmitted (drop its ACK so
	// the requester times out): the responder must not re-execute an
	// already-executed atomic (exactly-once via the read_WQE_SN dedupe).
	pp, a, _, cqA, _, _, memB := newPipe(t)
	word := make([]byte, 8)
	memB.Register(11, word)
	ackDrops := 0
	pp.intercept = func(p *VPacket) (bool, sim.Duration) {
		// Drop the first two read (N)ACK/ACK packets heading back.
		if (p.BTH.Opcode == packet.OpAcknowledge || p.BTH.Opcode == packet.OpReadRespOnly) && ackDrops < 1 {
			ackDrops++
			return true, 0
		}
		return false, 0
	}
	a.PostSend(Request{ID: 95, Op: OpFetchAdd, RKey: 11, VA: 0, Add: 1})
	pp.run()
	if v, _ := memB.ReadWord(11, 0); v != 1 {
		t.Errorf("word = %d, want 1 (atomic must execute exactly once)", v)
	}
	if got := len(cqA.Poll()); got != 1 {
		t.Errorf("CQEs = %d", got)
	}
}

func TestManySmallMessagesUnderChaos(t *testing.T) {
	// A hundred single-packet sends under drops and reordering: all
	// complete, all land in the right buffers in posted order.
	pp, a, b, _, cqB, _, _ := newPipe(t)
	rng := sim.NewRNG(123)
	pp.intercept = func(p *VPacket) (bool, sim.Duration) {
		if rng.Float64() < 0.02 {
			return true, 0
		}
		return false, sim.Duration(rng.Intn(5000)) * sim.Nanosecond
	}
	const n = 100
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 256)
		b.PostRecv(uint64(i), bufs[i])
	}
	for i := 0; i < n; i++ {
		a.PostSend(Request{ID: uint64(i), Op: OpSend, Data: fill(200, byte(i))})
	}
	pp.run()
	got := cqB.Poll()
	if len(got) != n {
		t.Fatalf("completions = %d, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[i].WQEID != uint64(i) {
			t.Fatalf("completion %d consumed WQE %d (order broken)", i, got[i].WQEID)
		}
		if !bytes.Equal(bufs[i][:200], fill(200, byte(i))) {
			t.Fatalf("buffer %d corrupted", i)
		}
	}
}

func TestSRQSharedAcrossTwoQPs(t *testing.T) {
	// Appendix B.2's point: one SRQ feeds Receive WQEs to multiple QPs.
	// Two requesters send to two responder QPs that share a pool; each
	// send drains one WQE, in arrival order across QPs.
	eng := sim.NewEngine()
	srq := NewSRQ()
	memB := NewMemory()
	cqB := &CQ{}

	mkPair := func(delay sim.Duration) (*QP, *QP) {
		var req, resp *QP
		wire := func(dst **QP, d sim.Duration) Wire {
			return WireFunc(func(p *VPacket) {
				pp := p
				eng.After(d, func() { (*dst).Receive(pp, eng.Now()) })
			})
		}
		req = NewQP("req", eng, DefaultConfig(), wire(&resp, delay), NewMemory(), &CQ{})
		resp = NewQP("resp", eng, DefaultConfig(), wire(&req, delay), memB, cqB)
		resp.UseSRQ(srq)
		return req, resp
	}
	// Different wire delays: requester 2's message arrives first.
	req1, _ := mkPair(10 * sim.Microsecond)
	req2, _ := mkPair(2 * sim.Microsecond)

	bufs := make([][]byte, 2)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
		srq.Post(uint64(1000+i), bufs[i])
	}
	req1.PostSend(Request{ID: 1, Op: OpSend, Data: fill(1000, 1)})
	req2.PostSend(Request{ID: 2, Op: OpSend, Data: fill(1000, 2)})
	eng.RunUntil(sim.Time(sim.Second))

	got := cqB.Poll()
	if len(got) != 2 {
		t.Fatalf("completions = %d, want 2", len(got))
	}
	// The faster wire (req2) drained the first SRQ WQE.
	if got[0].WQEID != 1000 || got[1].WQEID != 1001 {
		t.Errorf("SRQ drain order: %d, %d", got[0].WQEID, got[1].WQEID)
	}
	if !bytes.Equal(bufs[0][:1000], fill(1000, 2)) {
		t.Error("first-drained buffer should hold req2's payload")
	}
	if !bytes.Equal(bufs[1][:1000], fill(1000, 1)) {
		t.Error("second-drained buffer should hold req1's payload")
	}
	if srq.Pending() != 0 {
		t.Errorf("SRQ pending = %d", srq.Pending())
	}
}
