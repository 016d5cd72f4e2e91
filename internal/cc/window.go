package cc

import (
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// AIMD is TCP's additive-increase/multiplicative-decrease window logic
// grafted onto IRN (§4.4.4, §4.6): the window grows by one packet per
// window's worth of ACKs and halves on loss. Following §4.6, the flow
// starts at line rate — the initial window is the BDP cap, with BDP-FC
// still bounding the total (IRN's cap is the stricter of the two).
type AIMD struct {
	cwnd float64
	minW float64
}

// NewAIMD returns an AIMD window starting at initialPackets.
func NewAIMD(initialPackets int) *AIMD {
	if initialPackets < 1 {
		initialPackets = 1
	}
	return &AIMD{cwnd: float64(initialPackets), minW: 1}
}

// OnAck implements transport.Controller: +1 packet per RTT, approximated
// by cwnd += acked/cwnd. AIMD reacts to loss alone and ignores an ECN
// echo; the experiment launcher makes packets ECN-capable only for DCQCN
// and DCTCP.
func (a *AIMD) OnAck(_ sim.Time, _ sim.Duration, acked int, _ bool) {
	a.cwnd += float64(acked) / a.cwnd
}

// OnCNP implements transport.Controller.
func (a *AIMD) OnCNP(sim.Time) {}

// OnLoss implements transport.Controller.
func (a *AIMD) OnLoss(sim.Time) {
	a.cwnd /= 2
	if a.cwnd < a.minW {
		a.cwnd = a.minW
	}
}

// SendDelay implements transport.Controller.
func (a *AIMD) SendDelay(int) sim.Duration { return 0 }

// WindowPackets implements transport.Controller.
func (a *AIMD) WindowPackets() int { return int(a.cwnd) }

var _ transport.Controller = (*AIMD)(nil)

// DCTCP is the DCTCP window controller (Alizadeh et al., SIGCOMM 2010)
// used with IRN in §4.4.4: it estimates the fraction of ECN-marked ACKs
// per observation window and scales the congestion window by (1 − α/2)
// once per window when marks were seen.
type DCTCP struct {
	cwnd  float64
	alpha float64
	g     float64
	minW  float64

	ackedInWin  int
	markedInWin int
	winTarget   int // acks per observation window ≈ cwnd at window start
}

// NewDCTCP returns a DCTCP window starting at initialPackets with the
// standard g = 1/16 gain.
func NewDCTCP(initialPackets int) *DCTCP {
	if initialPackets < 1 {
		initialPackets = 1
	}
	d := &DCTCP{cwnd: float64(initialPackets), g: 1.0 / 16.0, minW: 1}
	d.winTarget = initialPackets
	return d
}

// Alpha exposes the marking estimate for tests.
func (d *DCTCP) Alpha() float64 { return d.alpha }

// OnAck implements transport.Controller.
func (d *DCTCP) OnAck(_ sim.Time, _ sim.Duration, acked int, ecnEcho bool) {
	d.ackedInWin += acked
	if ecnEcho {
		d.markedInWin += acked
	}
	if d.ackedInWin >= d.winTarget {
		frac := float64(d.markedInWin) / float64(d.ackedInWin)
		d.alpha = (1-d.g)*d.alpha + d.g*frac
		if d.markedInWin > 0 {
			d.cwnd *= 1 - d.alpha/2
			if d.cwnd < d.minW {
				d.cwnd = d.minW
			}
		} else {
			d.cwnd++
		}
		d.ackedInWin = 0
		d.markedInWin = 0
		d.winTarget = int(d.cwnd)
		if d.winTarget < 1 {
			d.winTarget = 1
		}
	}
}

// OnCNP implements transport.Controller.
func (d *DCTCP) OnCNP(sim.Time) {}

// OnLoss implements transport.Controller: fall back to halving, as TCP
// does on loss.
func (d *DCTCP) OnLoss(sim.Time) {
	d.cwnd /= 2
	if d.cwnd < d.minW {
		d.cwnd = d.minW
	}
}

// SendDelay implements transport.Controller.
func (d *DCTCP) SendDelay(int) sim.Duration { return 0 }

// WindowPackets implements transport.Controller.
func (d *DCTCP) WindowPackets() int { return int(d.cwnd) }

var _ transport.Controller = (*DCTCP)(nil)

// NewReno is TCP's congestion window as iWARP keeps it and IRN drops it
// (§2.3, §4.6): slow start from IW = 4 segments, then one segment per
// window of ACKs. At every recovery entry and every timeout, mid-episode
// ones included, ssthresh becomes max(in-flight/2, 2) and the window
// ssthresh, or 1 after a timeout; it stays there while the episode runs
// and is ssthresh when it ends. Episodes arrive through
// transport.Recoverer, so OnLoss is a no-op; ECN and CNPs are ignored.
type NewReno struct {
	cwnd, ssthresh float64
	recovering     bool
}

const (
	renoInitialWindow = 4       // IW, in segments
	renoNoSsthresh    = 1 << 30 // before the first loss: slow start
)

// NewNewReno returns a NewReno window in slow start from IW.
func NewNewReno() *NewReno {
	r := new(NewReno)
	r.Init()
	return r
}

// Init resets r to slow start from IW, in place.
func (r *NewReno) Init() { *r = NewReno{cwnd: renoInitialWindow, ssthresh: renoNoSsthresh} }

// OnAck implements transport.Controller.
func (r *NewReno) OnAck(_ sim.Time, _ sim.Duration, acked int, _ bool) {
	if r.recovering {
		return
	}
	for i := 0; i < acked; i++ {
		if r.cwnd < r.ssthresh {
			r.cwnd++
		} else {
			r.cwnd += 1 / r.cwnd
		}
	}
}

// EnterRecovery implements transport.Recoverer.
func (r *NewReno) EnterRecovery(inflight int, timeout bool) {
	r.ssthresh = max(float64(inflight)/2, 2)
	r.cwnd = r.ssthresh
	if timeout {
		r.cwnd = 1
	}
	r.recovering = true
}

// ExitRecovery implements transport.Recoverer.
func (r *NewReno) ExitRecovery() { r.cwnd, r.recovering = r.ssthresh, false }

// OnCNP implements transport.Controller.
func (r *NewReno) OnCNP(sim.Time) {}

// OnLoss implements transport.Controller.
func (r *NewReno) OnLoss(sim.Time) {}

// SendDelay implements transport.Controller.
func (r *NewReno) SendDelay(int) sim.Duration { return 0 }

// WindowPackets implements transport.Controller.
func (r *NewReno) WindowPackets() int { return max(int(r.cwnd), 1) }

var _ transport.Recoverer = (*NewReno)(nil)
