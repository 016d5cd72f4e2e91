package cc

import (
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// TimelyConfig configures a TIMELY controller (Mittal et al., SIGCOMM
// 2015). The IRN paper uses "the same congestion control parameters as
// specified in [29]": those are the constants below, and the additive
// step δ scales with the line rate.
type TimelyConfig struct {
	LineRateGbps float64
	// MinRTT normalizes the gradient.
	MinRTT sim.Duration
	// LossBackoff halves the rate on every loss the sender reports: the
	// §4.3 go-back-N-with-backoff ablation.
	LossBackoff bool
}

// The TIMELY paper's parameters.
const (
	// timelyEWMA is the gradient filter weight α.
	timelyEWMA = 0.875
	// timelyBeta is the multiplicative decrease factor β.
	timelyBeta = 0.8
	// timelyTLow: below this RTT, increase regardless of gradient.
	timelyTLow = 50 * sim.Microsecond
	// timelyTHigh: above this RTT, decrease regardless of gradient.
	timelyTHigh = 500 * sim.Microsecond
	// timelyHAIAfter is the number of consecutive non-positive
	// gradients before hyperactive increase engages.
	timelyHAIAfter = 5
)

// DefaultTimelyConfig returns the configuration for the line rate and
// base RTT, without loss backoff.
func DefaultTimelyConfig(lineGbps float64, minRTT sim.Duration) TimelyConfig {
	return TimelyConfig{LineRateGbps: lineGbps, MinRTT: minRTT}
}

// Timely is the RTT-gradient rate controller. It reacts to per-ACK RTT
// samples only — no ECN; losses surface through RTT inflation and, with
// LossBackoff, through OnLoss.
type Timely struct {
	cfg TimelyConfig

	rate       float64 // Gbps
	step       float64 // additive increase δ, Gbps: 10 Mbps at 10 Gbps, scaled
	prevRTT    sim.Duration
	rttDiff    float64 // EWMA of RTT differences, in ps
	negStreak  int     // consecutive completion events with gradient <= 0
	haveSample bool
}

// NewTimely returns a Timely controller starting at line rate.
func NewTimely(cfg TimelyConfig) *Timely {
	return &Timely{cfg: cfg, rate: cfg.LineRateGbps, step: cfg.LineRateGbps / 1000}
}

// RateGbps exposes the current rate for tests and diagnostics.
func (t *Timely) RateGbps() float64 { return t.rate }

// OnAck implements transport.Controller with TIMELY's Algorithm 1.
func (t *Timely) OnAck(_ sim.Time, rtt sim.Duration, _ int, _ bool) {
	if rtt <= 0 {
		return
	}
	if !t.haveSample {
		t.haveSample = true
		t.prevRTT = rtt
		return
	}
	newDiff := float64(rtt - t.prevRTT)
	t.prevRTT = rtt
	t.rttDiff = (1-timelyEWMA)*t.rttDiff + timelyEWMA*newDiff
	normGrad := t.rttDiff / float64(t.cfg.MinRTT)

	switch {
	case rtt < timelyTLow:
		t.negStreak = 0
		t.rate += t.step
	case rtt > timelyTHigh:
		t.negStreak = 0
		t.rate *= 1 - timelyBeta*(1-float64(timelyTHigh)/float64(rtt))
	case normGrad <= 0:
		t.negStreak++
		n := 1.0
		if t.negStreak >= timelyHAIAfter {
			n = 5.0 // hyperactive increase
		}
		t.rate += n * t.step
	default:
		t.negStreak = 0
		t.rate *= 1 - timelyBeta*normGrad
	}
	t.rate = clamp(t.rate, minRateGbps, t.cfg.LineRateGbps)
}

// OnCNP implements transport.Controller (ignored: Timely is RTT-based).
func (t *Timely) OnCNP(sim.Time) {}

// OnLoss implements transport.Controller: with LossBackoff, halve the
// rate.
func (t *Timely) OnLoss(sim.Time) {
	if t.cfg.LossBackoff {
		t.rate = clamp(t.rate/2, minRateGbps, t.cfg.LineRateGbps)
	}
}

// SendDelay implements transport.Controller.
func (t *Timely) SendDelay(wire int) sim.Duration { return rateToDelay(wire, t.rate) }

// WindowPackets implements transport.Controller.
func (t *Timely) WindowPackets() int { return 0 }

var _ transport.Controller = (*Timely)(nil)
