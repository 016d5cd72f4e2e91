// Package recovery holds the one copy of the paper's loss-recovery state
// machine (§3.1): cumulative acknowledgement plus a SACK bitmap, "first
// retransmit the cumulative ack, then holes below the highest SACK", a
// recovery sequence that ends the episode, and the RTOLow/RTOHigh pair.
// The same mechanism is reused unchanged for Read responses on the rPSN
// space (§5.2) and is what TCP's scoreboard does (§4.6), so IRN's sender
// (internal/core, which is iWARP's too) and both PSN spaces of a verbs QP
// (internal/verbs) are all callers of this package. What a
// caller keeps is only what is its own: the send pointer and window
// admission, pacing, packet retention, go-back-N rewinds, retry budgets.
//
// internal/hwmodel implements the same transitions independently, as the
// §6.2 hardware modules; the tests here replay random event sequences
// through both and require identical outputs.
package recovery

import "github.com/irnsim/irn/internal/bitmap"

// Scoreboard is a sender's view of which sequence numbers the peer holds.
// Sequence numbers are plain uint32s and compared without wrap-around.
// Embed it by value and Init it there; NewScoreboard allocates only the
// bitmap words.
type Scoreboard struct {
	sacked      bitmap.Bitmap // selective acks over [cum, cum+window)
	cum         uint32        // everything below is acknowledged
	highSack    uint32        // highest selectively acked PSN + 1; 0 = none
	recoverySeq uint32        // recovery ends once cum passes this
	retxNext    uint32        // scan pointer for the next retransmission
	inRecovery  bool
}

// NewScoreboard returns a scoreboard tracking selective acks for up to
// window sequence numbers past the cumulative point.
func NewScoreboard(window int) Scoreboard {
	var sb Scoreboard
	sb.Init(make([]uint64, bitmap.Words(window)))
	return sb
}

// Init makes sb an empty scoreboard whose SACK bitmap lives in words:
// bitmap.Words(window) zero words that sb owns from here on.
func (sb *Scoreboard) Init(words []uint64) {
	*sb = Scoreboard{}
	sb.sacked.Init(words)
}

// Words returns the words sb's SACK bitmap lives in (see Bitmap.Words).
func (sb *Scoreboard) Words() []uint64 { return sb.sacked.Words() }

// Cum returns the cumulative acknowledgement: the lowest unacked PSN.
func (sb *Scoreboard) Cum() uint32 { return sb.cum }

// InRecovery reports whether a loss-recovery episode is in progress.
func (sb *Scoreboard) InRecovery() bool { return sb.inRecovery }

// RecoverySeq returns the sequence number the cumulative ack must pass
// for the current episode to end (meaningful only while InRecovery).
func (sb *Scoreboard) RecoverySeq() uint32 { return sb.recoverySeq }

// Ack applies a cumulative acknowledgement. It reports how many sequence
// numbers were newly acknowledged (zero for a stale or duplicate ack) and
// whether this ack ended the recovery episode.
func (sb *Scoreboard) Ack(cum uint32) (newly int, exited bool) {
	if cum <= sb.cum {
		return 0, false
	}
	newly = int(cum - sb.cum)
	sb.sacked.AdvanceTo(cum)
	sb.cum = cum
	if sb.retxNext < cum {
		sb.retxNext = cum
	}
	if sb.inRecovery && cum > sb.recoverySeq {
		sb.inRecovery = false
		exited = true
	}
	return newly, exited
}

// Sack records that the peer holds psn out of order. Sequence numbers
// below the cumulative point or beyond the bitmap window are ignored. A
// sender that never calls Sack gets selective repeat without SACK: only
// the cumulative-ack packet is ever reported lost.
func (sb *Scoreboard) Sack(psn uint32) {
	if psn < sb.cum {
		return
	}
	if fresh, err := sb.sacked.Set(psn); err == nil && fresh && psn+1 > sb.highSack {
		sb.highSack = psn + 1
	}
}

// Enter starts a recovery episode unless one is already running, and
// reports whether it did. next is one past the last PSN the caller counts
// as sent — "the last regular packet that was sent before the
// retransmission of a lost packet" is next-1 — and the retransmission
// scan restarts at the cumulative ack.
func (sb *Scoreboard) Enter(next uint32) bool {
	if sb.inRecovery {
		return false
	}
	sb.Restamp(next)
	sb.Rescan()
	return true
}

// Restamp forces recovery on with the recovery sequence at next-1, even
// when an episode is already running (Enter leaves a running episode's
// sequence alone). The RTO of core's TCP recovery mode (iWARP's) and the
// verbs read responder's timeout restamp; IRN and the verbs requester do
// not.
func (sb *Scoreboard) Restamp(next uint32) {
	sb.inRecovery = true
	if next > 0 {
		sb.recoverySeq = next - 1
	} else {
		sb.recoverySeq = 0
	}
}

// Rescan restarts the retransmission scan at the cumulative ack, so the
// next lost PSN reported is the cumulative ack itself (timeouts).
func (sb *Scoreboard) Rescan() { sb.retxNext = sb.cum }

// DropHighSack forgets the highest-SACK mark while keeping the bitmap, so
// holes are reported again only below selective acks that arrive from now
// on and were not already recorded. Only the RTO of core's TCP recovery
// mode does this.
func (sb *Scoreboard) DropHighSack() { sb.highSack = 0 }

// Peek reports the next PSN to retransmit without consuming it: first the
// cumulative ack, then each hole below the highest SACK. limit bounds the
// answer from above (one past the last PSN that exists to be resent).
func (sb *Scoreboard) Peek(limit uint32) (uint32, bool) {
	if !sb.inRecovery {
		return 0, false
	}
	return sb.scan(limit)
}

// Take is Peek that also consumes the answer: the scan moves past it.
func (sb *Scoreboard) Take(limit uint32) (uint32, bool) {
	psn, ok := sb.Peek(limit)
	if ok {
		sb.retxNext = psn + 1
	}
	return psn, ok
}

// scan is the look-ahead of §6.2.1's txFree module; Peek answers "not in
// recovery" itself so that the per-packet path inlines it.
func (sb *Scoreboard) scan(limit uint32) (uint32, bool) {
	if sb.retxNext <= sb.cum {
		// The cumulative ack itself is always the first retransmission.
		return sb.cum, sb.cum < limit
	}
	// Past it, a packet is lost only if a higher PSN was selectively acked.
	if sb.retxNext >= sb.highSack {
		return 0, false
	}
	psn := sb.cum + uint32(sb.sacked.NextZero(int(sb.retxNext-sb.cum)))
	return psn, psn < sb.highSack && psn < limit
}
