package verbs

import (
	"github.com/irnsim/irn/internal/bitmap"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// This file is the requester's control-plane: ACK/NACK processing on the
// sPSN space (including WQE expiry via the MSN), read-response reception
// on the rPSN space with read (N)ACK generation (§5.2), and fence
// release.

// onAck processes an ACK (nack=false) or NACK/RNR (nack=true).
func (q *QP) onAck(p *VPacket, nack bool, now sim.Time) {
	if cum := p.BTH.PSN; q.ack(&q.tx, cum) {
		q.attempts = 0 // cumulative progress refills the retry budget
		if q.rewind < cum {
			q.rewind = cum
		}
	}

	// Expire Request WQEs the responder has completed (§5.3.3): the MSN
	// in the AETH identifies them.
	q.expireRequests(p.AETH.MSN, now)

	if nack {
		switch p.AETH.Syndrome {
		case packet.SyndromeRNRNack:
			// Receiver not ready: back off, then resume from the
			// cumulative point (Appendix B.3/B.4: error NACKs trigger
			// go-back-N). Each backoff spends one retry attempt.
			if q.bumpAttempts() {
				return
			}
			q.rnrUntil = now.Add(q.cfg.RNRDelay)
			q.restartRecovery()
			q.eng.ScheduleEventFrom(q.clk, q.rnrUntil, q, qpRNRResume, uint64(q.rnrUntil))
			return
		default:
			if !q.cfg.GoBackN {
				// SACK bookkeeping feeds selective retransmission only;
				// the go-back-N baseline ignores the hint and rewinds.
				q.tx.sb.Sack(p.SackPSN)
			}
			q.enterRecovery()
		}
	}
	q.pump()
}

// expireRequests pops Request WQEs up to the acknowledged MSN, emitting
// CQEs for Writes and Sends (Reads and Atomics complete on data arrival).
func (q *QP) expireRequests(msn uint32, now sim.Time) {
	for q.expired < msn && q.reqWQEs.Len() > 0 {
		w := *q.reqWQEs.At(0)
		if w.msgIdx >= msn {
			break
		}
		w.expired = true
		q.reqWQEs.Pop()
		q.expired++
		switch w.req.Op {
		case OpWrite, OpWriteImm, OpSend, OpSendInv:
			if !w.completed {
				w.completed = true
				q.cq.push(CQE{WQEID: w.req.ID, Op: w.req.Op, Len: len(w.req.Data), At: now})
			}
		}
		q.recycleWQE(w) // a Read whose data is still arriving stays out
	}
	q.releaseFence()
}

// releaseFence admits fenced requests once every prior WQE has expired
// and completed (§5.3.4, Appendix B.5).
func (q *QP) releaseFence() {
	for q.fenceQ.Len() > 0 {
		if q.reqWQEs.Len() > 0 || q.readsPending > 0 {
			return
		}
		q.admit(q.fenceQ.Pop())
	}
}

// onReadResponse handles a read/atomic response packet on the rPSN space:
// place the data at its final location immediately, send a read (N)ACK on
// the new opcode (§5.2), and complete the read when all packets landed.
func (q *QP) onReadResponse(p *VPacket, now sim.Time) {
	psn := p.BTH.PSN
	if q.rrx == nil {
		q.rrx = bitmap.NewTwo(PSNWindow)
	}
	if psn < q.rrxExp {
		q.sendReadAck(false, 0) // duplicate: re-ack
		return
	}
	if int(psn-q.rrxExp) >= q.rrx.Cap() {
		q.Drops++
		return
	}
	fresh, err := q.rrx.MarkArrived(psn, p.BTH.Opcode.IsLast())
	if err != nil {
		q.Drops++
		return
	}
	if fresh {
		w, ok := q.readsOut[p.Ext.WQESeq]
		if ok && w.dataRemaining > 0 {
			switch w.req.Op {
			case OpRead:
				off := int(p.Ext.RelOffset) * q.cfg.MTU
				if off+len(p.Payload) <= len(w.req.Local) {
					copy(w.req.Local[off:], p.Payload)
				}
			case OpFetchAdd, OpCmpSwap:
				w.atomicResult(p.AtomicCmp)
			}
			w.dataRemaining--
			if w.dataRemaining == 0 {
				q.readsPending--
				q.completeReads(now)
			}
		}
	}
	if psn == q.rrxExp {
		n, _ := q.rrx.AdvanceCumulative()
		q.rrxExp += uint32(n)
		q.sendReadAck(false, 0)
	} else {
		q.sendReadAck(true, psn)
	}
}

// completeReads delivers Read/Atomic CQEs in posted order: a read whose
// data all landed while an earlier read still has a hole waits for it,
// the requester-side twin of the responder's premature CQEs (§5.3.3).
func (q *QP) completeReads(now sim.Time) {
	for {
		w, ok := q.readsOut[q.readCQ]
		if !ok || w.dataRemaining > 0 {
			break
		}
		delete(q.readsOut, q.readCQ)
		q.readCQ++
		if !w.completed {
			w.completed = true
			q.cq.push(CQE{
				WQEID:  w.req.ID,
				Op:     w.req.Op,
				Len:    len(w.req.Local),
				Atomic: w.atomicVal,
				At:     now,
			})
		}
		q.recycleWQE(w) // one not yet acknowledged via MSN stays out
	}
	q.releaseFence()
}

// sendReadAck emits the read (N)ACK (§5.2): cumulative rPSN plus,
// for NACKs, the triggering PSN.
func (q *QP) sendReadAck(nack bool, sack uint32) {
	syn := uint8(packet.SyndromeAck)
	if nack {
		syn = packet.SyndromeNack
	}
	p := q.newPkt()
	*p = VPacket{
		BTH:     packet.BTH{Opcode: packet.OpReadNack, PSN: q.rrxExp},
		AETH:    packet.AETH{Syndrome: syn},
		SackPSN: sack,
	}
	q.wire.Send(p)
}
