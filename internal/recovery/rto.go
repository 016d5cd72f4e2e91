package recovery

import "github.com/irnsim/irn/internal/sim"

// DualRTO is the §3.1 timeout rule: the short timeout while fewer than
// lowN packets are in flight (so short messages recover from tail loss
// quickly, with too few packets outstanding for the spurious
// retransmissions to matter), the long one otherwise.
func DualRTO(inflight, lowN int, low, high sim.Duration) sim.Duration {
	if inflight < lowN {
		return low
	}
	return high
}

// RTT is the RFC 6298 smoothed round-trip estimator.
type RTT struct {
	srtt, rttvar sim.Duration
	valid        bool
}

// Sample feeds one round-trip measurement; non-positive samples are
// ignored.
func (r *RTT) Sample(rtt sim.Duration) {
	if rtt <= 0 {
		return
	}
	if !r.valid {
		r.srtt = rtt
		r.rttvar = rtt / 2
		r.valid = true
		return
	}
	d := r.srtt - rtt
	if d < 0 {
		d = -d
	}
	r.rttvar = (3*r.rttvar + d) / 4
	r.srtt = (7*r.srtt + rtt) / 8
}

// RTO returns SRTT + 4·RTTVAR, unclamped; ok is false before the first
// sample.
func (r *RTT) RTO() (rto sim.Duration, ok bool) {
	return r.srtt + 4*r.rttvar, r.valid
}
