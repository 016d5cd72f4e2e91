package verbs

import (
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/recovery"
	"github.com/irnsim/irn/internal/sim"
)

// psnWindow is how far past the cumulative point each PSN space tracks
// selective acks and arrivals; BDP-FC keeps senders far inside it.
const psnWindow = 4096

// sendHalf is the reliable transmit side of one PSN space. A QP has two:
// the requester's request stream (sPSN) and the responder's read-response
// stream (rPSN, §5.2), with the same loss recovery on both.
type sendHalf struct {
	sb    recovery.Scoreboard
	next  uint32              // next PSN to assign
	pend  map[uint32]*VPacket // transmitted, awaiting the cumulative ack
	timer *sim.Timer
}

func newSendHalf() sendHalf {
	return sendHalf{sb: recovery.NewScoreboard(psnWindow), pend: make(map[uint32]*VPacket)}
}

// idle reports whether every assigned PSN has been acknowledged.
func (h *sendHalf) idle() bool { return h.sb.Cum() >= h.next }

// arm arms h's retransmission timer (§3.1 dual timeouts), or cancels it
// when nothing is outstanding.
func (q *QP) arm(h *sendHalf) {
	if h.idle() {
		h.timer.Cancel()
		return
	}
	h.timer.Arm(recovery.DualRTO(int(h.next-h.sb.Cum()), q.cfg.RTOLowN, q.cfg.RTOLow, q.cfg.RTOHigh))
}

// ack applies a cumulative acknowledgement to h, releasing the retained
// packets below it, and reports whether it made progress.
func (q *QP) ack(h *sendHalf, cum uint32) bool {
	for psn := h.sb.Cum(); psn < cum; psn++ {
		delete(h.pend, psn)
	}
	if newly, _ := h.sb.Ack(cum); newly == 0 {
		return false
	}
	q.arm(h)
	return true
}

// resendLost retransmits every packet of h the scoreboard reports lost;
// sent is one past the last PSN transmitted.
func (q *QP) resendLost(h *sendHalf, sent uint32) {
	for {
		psn, ok := h.sb.Take(sent)
		if !ok {
			return
		}
		if p, ok := h.pend[psn]; ok {
			q.Retransmits++
			q.wire.Send(p)
		}
	}
}

// ---- Read-response stream (rPSN space) ----

// sendReadResp assigns the next rPSN and transmits, retaining the packet
// for retransmission. The Read responder implements timeouts (§5.2).
func (q *QP) sendReadResp(p *VPacket) {
	p.BTH.PSN = q.rtx.next
	q.rtx.next++
	q.rtx.pend[p.BTH.PSN] = p
	q.wire.Send(p)
	q.arm(&q.rtx)
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
	q.resendLost(&q.rtx, q.rtx.next)
	q.arm(&q.rtx)
}

// onReadNack processes the requester's read (N)ACKs (§5.2): cumulative
// advance plus, for NACKs, the selective ack and loss recovery.
func (q *QP) onReadNack(p *VPacket) {
	q.ack(&q.rtx, p.BTH.PSN)
	if p.AETH.Syndrome == packet.SyndromeNack {
		q.rtx.sb.Sack(p.SackPSN)
		q.rtx.sb.Enter(q.rtx.next)
		q.resendLost(&q.rtx, q.rtx.next)
	}
}
