package verbs

import (
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// This file is the responder half of the QP: request-packet processing
// with out-of-order DMA placement (§5.3), the Read WQE buffer, premature
// CQEs, MSN maintenance, and read/atomic execution (the responses go out
// on the rPSN space's sendHalf).

// onRequest handles an arriving request packet (Write/Send/Read/Atomic).
func (q *QP) onRequest(p *VPacket, now sim.Time) {
	psn := p.BTH.PSN
	switch {
	case psn < q.rxExp:
		// Duplicate below the window: re-ACK so the requester advances.
		q.sendAck()
		return
	case psn-q.rxExp > q.rxMask:
		q.Drops++ // W or more past the cumulative point: BDP-FC violation; drop
		return
	}

	ooo := psn != q.rxExp

	// Go-back-N baseline: no out-of-order placement. OOO arrivals are
	// dropped and NACKed so the requester rewinds from the cumulative
	// point — the RoCE behavior IRN's 2-bitmap replaces.
	if ooo && q.cfg.GoBackN {
		q.Drops++
		q.sendNack(psn)
		return
	}

	// Sends need their Receive WQE to place data; if it is not there:
	// in-order arrivals get an RNR NACK, out-of-order arrivals are
	// silently dropped (Appendix B.3 — the probe case).
	if isSendOpcode(p.BTH.Opcode) {
		if !q.recvQ.available(p.Ext.WQESeq) {
			if ooo {
				q.Drops++
				return
			}
			q.RNRNacks++
			q.sendRNR()
			return
		}
	}

	fresh, err := q.rx.MarkArrived(psn, p.BTH.Opcode.IsLast())
	if err != nil {
		q.Drops++
		return
	}
	if fresh {
		q.placeData(p)
	}

	if ooo {
		// NACK with cumulative ack + the PSN that triggered it (§3.1).
		q.sendNack(psn)
	} else {
		q.advanceCumulative(now)
		q.sendAck()
	}
}

// isSendOpcode reports Send-class opcodes (consume Receive WQEs for
// placement).
func isSendOpcode(op packet.Opcode) bool {
	switch op {
	case packet.OpSendFirst, packet.OpSendMiddle, packet.OpSendLast,
		packet.OpSendOnly, packet.OpSendLastImm, packet.OpSendOnlyImm,
		packet.OpSendLastInv, packet.OpSendOnlyInv:
		return true
	}
	return false
}

// placeData DMAs the packet payload to its final location immediately,
// even out of order (§5.3: "the NIC DMAs OOO packets directly to the
// final address in the application memory").
func (q *QP) placeData(p *VPacket) {
	op := p.BTH.Opcode
	switch {
	case op >= packet.OpWriteFirst && op <= packet.OpWriteOnlyImm:
		// Every IRN write packet carries a RETH addressing its own
		// bytes (§5.3.1).
		if len(p.Payload) > 0 {
			q.mem.Write(p.RETH.RKey, p.RETH.VA, p.Payload)
		}
		if op.IsLast() {
			st := stagedCQE{imm: p.Imm, length: int(p.RETH.DMALen), valid: true}
			if op.HasImmediate() {
				st.hasRecv = true
				st.recvSN = p.Ext.WQESeq
			}
			q.staged[p.BTH.PSN&q.rxMask] = st
		}

	case isSendOpcode(op):
		// Placement via recv_WQE_SN + relative offset (§5.3.2).
		if w, ok := q.recvQ.get(p.Ext.WQESeq); ok {
			off := int(p.Ext.RelOffset) * q.cfg.MTU
			if off+len(p.Payload) <= len(w.Buf) {
				copy(w.Buf[off:], p.Payload)
			}
		}
		if op.IsLast() {
			st := stagedCQE{
				recvSN:  p.Ext.WQESeq,
				imm:     p.Imm,
				hasRecv: true,
				valid:   true,
				length:  int(p.Ext.RelOffset)*q.cfg.MTU + len(p.Payload),
			}
			if op == packet.OpSendLastInv || op == packet.OpSendOnlyInv {
				st.invKey = p.InvKey
			}
			q.staged[p.BTH.PSN&q.rxMask] = st
		}

	case op == packet.OpReadRequest:
		// Park in the Read WQE buffer, indexed by read_WQE_SN (§5.3.2).
		q.parkRead(&pendingRead{
			psn: p.BTH.PSN, sn: p.Ext.WQESeq, op: OpRead,
			rkey: p.RETH.RKey, va: p.RETH.VA, length: int(p.RETH.DMALen),
		})

	case op == packet.OpFetchAdd:
		q.parkRead(&pendingRead{
			psn: p.BTH.PSN, sn: p.Ext.WQESeq, op: OpFetchAdd,
			rkey: p.RETH.RKey, va: p.RETH.VA, length: 8, add: p.AtomicCmp,
		})

	case op == packet.OpCompareSwap:
		q.parkRead(&pendingRead{
			psn: p.BTH.PSN, sn: p.Ext.WQESeq, op: OpCmpSwap,
			rkey: p.RETH.RKey, va: p.RETH.VA, length: 8,
			cmp: p.AtomicCmp, swap: p.AtomicSwap,
		})
	}
}

// parkRead stores a Read/Atomic request for in-order execution; the
// read_WQE_SN map dedupes retransmitted requests.
func (q *QP) parkRead(r *pendingRead) {
	if psn, ok := q.readSNAt[r.sn]; ok {
		if old, ok2 := q.readBuf[psn]; ok2 && old.executed {
			return // already executed; duplicate request
		}
	}
	q.readSNAt[r.sn] = r.psn
	q.readBuf[r.psn] = r
}

// advanceCumulative pops the in-order prefix of the 2-bitmap: bump the
// MSN per completed message, emit staged CQEs in order, execute eligible
// Read/Atomic requests (§5.3.3).
func (q *QP) advanceCumulative(now sim.Time) {
	base := q.rxExp
	pkts, _ := q.rx.AdvanceCumulative()
	if pkts == 0 {
		return
	}
	q.rxExp += uint32(pkts)
	for psn := base; psn != q.rxExp; psn++ {
		if st := &q.staged[psn&q.rxMask]; st.valid {
			st.valid = false
			q.msn++
			q.emitRecvCQE(*st, now)
		}
		if r, ok := q.readBuf[psn]; ok && !r.executed {
			r.executed = true
			q.msn++
			q.executeRead(r)
		}
	}
}

// emitRecvCQE delivers a responder-side completion (and the
// Send-with-Invalidate side effect).
func (q *QP) emitRecvCQE(st stagedCQE, now sim.Time) {
	if st.invKey != 0 {
		q.mem.Invalidate(st.invKey)
	}
	if !st.hasRecv {
		return // plain Writes complete silently at the responder
	}
	var id uint64
	if w, ok := q.recvQ.get(st.recvSN); ok {
		id = w.ID
	}
	q.recvQ.consume(st.recvSN)
	q.cq.push(CQE{
		WQEID:   id,
		Op:      OpSend,
		Imm:     st.imm,
		Len:     st.length,
		Receive: true,
		At:      now,
	})
}

// executeRead runs an eligible Read or Atomic and streams the response
// on the rPSN space.
func (q *QP) executeRead(r *pendingRead) {
	switch r.op {
	case OpRead:
		data, ok := q.mem.Read(r.rkey, r.va, r.length)
		if !ok {
			data = make([]byte, r.length)
		}
		n := pktsFor(len(data), q.cfg.MTU)
		for i := 0; i < n; i++ {
			lo := i * q.cfg.MTU
			hi := lo + q.cfg.MTU
			if hi > len(data) {
				hi = len(data)
			}
			p := q.newPkt()
			*p = VPacket{
				BTH:     packet.BTH{Opcode: readRespOpcode(i, n)},
				Ext:     packet.IRNExt{WQESeq: r.sn, RelOffset: uint32(i)},
				Payload: data[lo:hi],
			}
			q.sendReadResp(p)
		}
	case OpFetchAdd, OpCmpSwap:
		orig, _ := q.mem.ReadWord(r.rkey, r.va)
		switch r.op {
		case OpFetchAdd:
			q.mem.WriteWord(r.rkey, r.va, orig+r.add)
		case OpCmpSwap:
			if orig == r.cmp {
				q.mem.WriteWord(r.rkey, r.va, r.swap)
			}
		}
		p := q.newPkt()
		*p = VPacket{
			BTH:       packet.BTH{Opcode: packet.OpReadRespOnly},
			Ext:       packet.IRNExt{WQESeq: r.sn},
			AtomicCmp: orig, // original value rides back to the requester
		}
		q.sendReadResp(p)
	}
}

func readRespOpcode(i, n int) packet.Opcode {
	switch {
	case n == 1:
		return packet.OpReadRespOnly
	case i == 0:
		return packet.OpReadRespFirst
	case i == n-1:
		return packet.OpReadRespLast
	default:
		return packet.OpReadRespMiddle
	}
}

// sendAck emits a cumulative ACK carrying the MSN (§5.3.3).
func (q *QP) sendAck() {
	q.sendAckFamily(packet.OpAcknowledge, packet.SyndromeAck, 0)
}

// sendNack emits an IRN NACK: cumulative ack + triggering PSN.
func (q *QP) sendNack(sack uint32) {
	q.sendAckFamily(packet.OpAtomicAcknowledge, packet.SyndromeNack, sack)
}

// sendRNR emits a receiver-not-ready NACK (Appendix B.3/B.4).
func (q *QP) sendRNR() {
	q.sendAckFamily(packet.OpAtomicAcknowledge, packet.SyndromeRNRNack, 0)
}

// sendAckFamily emits one (N)ACK on the sPSN space: the cumulative point
// and the MSN, plus the triggering PSN on an IRN NACK.
func (q *QP) sendAckFamily(op packet.Opcode, syndrome uint8, sack uint32) {
	p := q.newPkt()
	*p = VPacket{
		BTH:     packet.BTH{Opcode: op, PSN: q.rxExp},
		AETH:    packet.AETH{Syndrome: syndrome, MSN: q.msn},
		SackPSN: sack,
	}
	q.wire.Send(p)
}
