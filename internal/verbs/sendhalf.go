package verbs

import (
	"github.com/irnsim/irn/internal/fifo"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/recovery"
	"github.com/irnsim/irn/internal/sim"
)

// PSNWindow bounds a QP's BDP cap (NewQPOn refuses a larger one) and is
// the window of the read-response (rPSN) space, whose sender is the
// responder with no BDP cap of its own.
//
// Each PSN space tracks selective acks and arrivals, and indexes its
// rings, over a window of W PSNs past its cumulative point: W is the
// smallest power of two at or above Config.BDPCap on the request (sPSN)
// space (psnWindow) and PSNWindow on the rPSN space. A sender keeps fewer
// than its cap PSNs outstanding and a receiver refuses arrivals W or more
// past its cumulative point, so psn&(W-1) never aliases two live PSNs.
const PSNWindow = 4096

// psnWindow returns the request space's W for a BDP cap: the smallest
// power of two at or above it.
func psnWindow(bdpCap int) int {
	w := 1
	for w < bdpCap {
		w <<= 1
	}
	return w
}

// sendHalf is the reliable transmit side of one PSN space. A QP has two:
// the requester's request stream (sPSN) and the responder's read-response
// stream (rPSN, §5.2), with the same loss recovery on both.
type sendHalf struct {
	sb    recovery.Scoreboard
	next  uint32               // next PSN to assign
	sendQ fifo.Queue[*VPacket] // built, not yet transmitted: PSNs [sent(), next)
	pend  []*VPacket           // transmitted masters, awaiting the cumulative ack; by psn&mask
	mask  uint32               // W-1: len(pend) is the space's window W
	limit int                  // most PSNs outstanding: BDP-FC on requests, the window on responses
	timer *sim.Timer
}

// init sizes h for a window of w PSNs, a power of two, of which at most
// limit are outstanding. It leaves the timer alone.
func (h *sendHalf) init(w, limit int) {
	h.sb = recovery.NewScoreboard(w)
	h.pend = make([]*VPacket, w)
	h.mask = uint32(w - 1)
	h.limit = limit
}

// idle reports whether every assigned PSN has been acknowledged.
func (h *sendHalf) idle() bool { return h.sb.Cum() >= h.next }

// sent is one past the last PSN transmitted.
func (h *sendHalf) sent() uint32 { return h.next - uint32(h.sendQ.Len()) }

// enqueue assigns p the next PSN of h and queues it for transmission.
func (h *sendHalf) enqueue(p *VPacket) {
	p.BTH.PSN = h.next
	h.next++
	h.sendQ.Push(p)
}

// sendCopy hands the wire a fresh copy of a retained master; the copy is
// the wire's from here on (Release).
func (q *QP) sendCopy(master *VPacket) {
	c := q.newPkt()
	*c = *master
	q.wire.Send(c)
}

// transmit sends h's queued packets while fewer than limit PSNs are
// outstanding, retaining each for retransmission, and re-arms the timer.
func (q *QP) transmit(h *sendHalf) {
	for h.sendQ.Len() > 0 {
		p := *h.sendQ.At(0)
		if int(p.BTH.PSN-h.sb.Cum()) >= h.limit {
			break
		}
		h.sendQ.Pop()
		h.pend[p.BTH.PSN&h.mask] = p
		q.sendCopy(p)
	}
	q.arm(h)
}

// arm arms h's retransmission timer (§3.1 dual timeouts), or cancels it
// when nothing is outstanding.
func (q *QP) arm(h *sendHalf) {
	if h.idle() {
		h.timer.Cancel()
		return
	}
	h.timer.Arm(recovery.DualRTO(int(h.next-h.sb.Cum()), q.cfg.RTOLowN, q.cfg.RTOLow, q.cfg.RTOHigh))
}

// ack applies a cumulative acknowledgement to h, putting the retained
// masters below it back on the free list, and reports whether it made
// progress.
func (q *QP) ack(h *sendHalf, cum uint32) bool {
	for psn, end := h.sb.Cum(), min(cum, h.sent()); psn < end; psn++ {
		q.Release(h.pend[psn&h.mask])
		h.pend[psn&h.mask] = nil
	}
	if newly, _ := h.sb.Ack(cum); newly == 0 {
		return false
	}
	q.arm(h)
	return true
}

// resend retransmits psn if it is outstanding — transmitted and not yet
// cumulatively acknowledged, the only PSNs whose ring slot is theirs.
func (q *QP) resend(h *sendHalf, psn uint32) {
	if cum := h.sb.Cum(); psn-cum < h.sent()-cum {
		q.Retransmits++
		q.sendCopy(h.pend[psn&h.mask])
	}
}

// resendLost retransmits every transmitted packet of h the scoreboard
// reports lost.
func (q *QP) resendLost(h *sendHalf) {
	for {
		psn, ok := h.sb.Take(h.sent())
		if !ok {
			return
		}
		q.resend(h, psn)
	}
}

// ---- Read-response stream (rPSN space) ----

// sendReadResp assigns the next rPSN and transmits. The Read responder
// implements timeouts (§5.2). The space's rings are made for the first
// response: a QP that executes no Read or Atomic never holds them.
func (q *QP) sendReadResp(p *VPacket) {
	if q.rtx.pend == nil {
		q.rtx.init(PSNWindow, PSNWindow)
	}
	q.rtx.enqueue(p)
	q.transmit(&q.rtx)
}

// onReadTimeout retransmits read responses from the cumulative point.
// Unlike the requester's timeout it restamps the recovery sequence of an
// episode already running.
func (q *QP) onReadTimeout() {
	if q.rtx.idle() {
		return
	}
	q.Timeouts++
	q.rtx.sb.Restamp(q.rtx.next)
	q.rtx.sb.Rescan()
	q.resendLost(&q.rtx)
	q.arm(&q.rtx)
}

// onReadNack processes the requester's read (N)ACKs (§5.2): cumulative
// advance plus, for NACKs, the selective ack and loss recovery.
func (q *QP) onReadNack(p *VPacket) {
	q.ack(&q.rtx, p.BTH.PSN)
	if p.AETH.Syndrome == packet.SyndromeNack {
		q.rtx.sb.Sack(p.SackPSN)
		q.rtx.sb.Enter(q.rtx.next)
		q.resendLost(&q.rtx)
	}
	if q.rtx.sendQ.Len() > 0 {
		q.transmit(&q.rtx) // responses held back by a full window
	}
}
