package recovery

import "github.com/irnsim/irn/internal/bitmap"

// Arrival classifies a data packet against a receiver's reorder window.
type Arrival uint8

// Arrival classes.
const (
	// Duplicate is below the expected sequence number: already delivered.
	Duplicate Arrival = iota
	// InOrder is the expected sequence number; the window advanced past
	// it and any buffered packets that followed.
	InOrder
	// OutOfOrder is ahead of the expected sequence number and inside the
	// window; it is now buffered.
	OutOfOrder
	// Outside is beyond the window (the sender overran its in-flight
	// cap); nothing was recorded.
	Outside
)

// Reorder is the receiver half: the next expected sequence number, a
// bitmap of out-of-order arrivals beyond it, and the count of distinct
// packets received.
type Reorder struct {
	rcv      bitmap.Bitmap
	expected uint32
	received int
}

// NewReorder returns a receive window buffering up to window sequence
// numbers past the expected one.
func NewReorder(window int) Reorder {
	var r Reorder
	r.Init(make([]uint64, bitmap.Words(window)))
	return r
}

// Init makes r an empty window whose arrival bitmap lives in words:
// bitmap.Words(window) zero words that r owns from here on.
func (r *Reorder) Init(words []uint64) {
	*r = Reorder{}
	r.rcv.Init(words)
}

// Words returns the words r's arrival bitmap lives in (see Bitmap.Words).
func (r *Reorder) Words() []uint64 { return r.rcv.Words() }

// Expected returns the next in-order sequence number: the cumulative ack.
func (r *Reorder) Expected() uint32 { return r.expected }

// Received returns how many distinct sequence numbers have arrived.
func (r *Reorder) Received() int { return r.received }

// Arrive records the arrival of psn and classifies it. fresh reports
// whether this is the first copy of psn (always for InOrder, never for
// Duplicate or Outside).
func (r *Reorder) Arrive(psn uint32) (kind Arrival, fresh bool) {
	if psn < r.expected {
		return Duplicate, false
	}
	fresh, err := r.rcv.Set(psn)
	if err != nil {
		return Outside, false
	}
	if fresh {
		r.received++
	}
	if psn != r.expected {
		return OutOfOrder, fresh
	}
	n := r.rcv.LeadingOnes()
	r.rcv.Advance(n)
	r.expected += uint32(n)
	return InOrder, true
}
