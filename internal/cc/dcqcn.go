package cc

import (
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// DCQCNConfig configures a DCQCN reaction point (Zhu et al., SIGCOMM
// 2015). The simulator in the IRN paper "implements DCQCN as implemented
// in the Mellanox ConnectX-4 RoCE NIC"; every other parameter is one of
// the ConnectX-4-style constants below, and the increase steps scale with
// the line rate.
type DCQCNConfig struct {
	LineRateGbps float64
}

// The DCQCN reaction-point constants (ConnectX-4-style defaults).
const (
	// dcqcnG is the α EWMA gain g.
	dcqcnG = 1.0 / 256.0
	// dcqcnAlphaTimer is the α update period when no CNP arrives.
	dcqcnAlphaTimer = 55 * sim.Microsecond
	// dcqcnIncreaseTimer is the rate-increase timer period.
	dcqcnIncreaseTimer = 300 * sim.Microsecond
	// dcqcnByteCounter is the rate-increase byte threshold (10 MiB).
	dcqcnByteCounter = 10 << 20
	// dcqcnF is the number of fast-recovery stages.
	dcqcnF = 5
)

// DefaultDCQCNConfig returns the configuration for the line rate.
func DefaultDCQCNConfig(lineGbps float64) DCQCNConfig {
	return DCQCNConfig{LineRateGbps: lineGbps}
}

// DCQCN is the reaction-point state machine: multiplicative decrease on
// CNP arrival with an EWMA-estimated congestion level α, and staged rate
// recovery (fast recovery → additive increase → hyper increase) driven by
// a timer and a byte counter.
type DCQCN struct {
	cfg DCQCNConfig
	eng *sim.Engine

	rc    float64 // current rate, Gbps
	rt    float64 // target rate, Gbps
	alpha float64

	bytesSinceUp int
	timerStage   int // timer cycles since last decrease
	byteStage    int // byte-counter cycles since last decrease

	alphaTimer *sim.Timer
	incTimer   *sim.Timer
}

// DCQCN sim.Handler event kinds: the two reaction-point timers.
const (
	dcqcnAlpha uint8 = iota // α-decay period elapsed without a CNP
	dcqcnIncrease
)

// NewDCQCN returns a controller starting at line rate. The engine powers
// the α-decay and rate-increase timers; clk is the owning host's rank
// clock (nil falls back to the engine clock), which keeps the timers'
// events in canonical order under sharded execution.
func NewDCQCN(eng *sim.Engine, clk *sim.Clock, cfg DCQCNConfig) *DCQCN {
	d := &DCQCN{
		cfg:   cfg,
		eng:   eng,
		rc:    cfg.LineRateGbps,
		rt:    cfg.LineRateGbps,
		alpha: 1,
	}
	d.alphaTimer = sim.NewHandlerTimer(eng, clk, d, dcqcnAlpha)
	d.incTimer = sim.NewHandlerTimer(eng, clk, d, dcqcnIncrease)
	d.alphaTimer.Arm(dcqcnAlphaTimer)
	d.incTimer.Arm(dcqcnIncreaseTimer)
	return d
}

// HandleEvent implements sim.Handler: timer dispatch.
func (d *DCQCN) HandleEvent(kind uint8, _ uint64) {
	if kind == dcqcnAlpha {
		d.alphaDecay()
	} else {
		d.timerIncrease()
	}
}

// RateGbps exposes the current rate.
func (d *DCQCN) RateGbps() float64 { return d.rc }

// Alpha exposes the congestion estimate for tests.
func (d *DCQCN) Alpha() float64 { return d.alpha }

// OnCNP implements transport.Controller: the rate decrease of the DCQCN
// reaction point.
func (d *DCQCN) OnCNP(sim.Time) {
	d.rt = d.rc
	d.rc = clamp(d.rc*(1-d.alpha/2), minRateGbps, d.cfg.LineRateGbps)
	d.alpha = (1-dcqcnG)*d.alpha + dcqcnG
	d.timerStage = 0
	d.byteStage = 0
	d.bytesSinceUp = 0
	d.alphaTimer.Arm(dcqcnAlphaTimer)
	d.incTimer.Arm(dcqcnIncreaseTimer)
}

// alphaDecay runs when the α timer elapses with no CNP.
func (d *DCQCN) alphaDecay() {
	d.alpha = (1 - dcqcnG) * d.alpha
	d.alphaTimer.Arm(dcqcnAlphaTimer)
}

// timerIncrease runs on each rate-increase timer expiry.
func (d *DCQCN) timerIncrease() {
	d.timerStage++
	d.increase()
	d.incTimer.Arm(dcqcnIncreaseTimer)
}

// OnSendBytes advances the byte counter; senders call it per transmitted
// packet.
func (d *DCQCN) OnSendBytes(n int) {
	d.bytesSinceUp += n
	for d.bytesSinceUp >= dcqcnByteCounter {
		d.bytesSinceUp -= dcqcnByteCounter
		d.byteStage++
		d.increase()
	}
}

// increase applies one rate-increase event according to the stage the
// reaction point is in (DCQCN §5.2).
func (d *DCQCN) increase() {
	maxStage := d.timerStage
	if d.byteStage > maxStage {
		maxStage = d.byteStage
	}
	minStage := d.timerStage
	if d.byteStage < minStage {
		minStage = d.byteStage
	}
	switch {
	case maxStage <= dcqcnF: // fast recovery
		// rc moves halfway back to rt; rt unchanged.
	case minStage > dcqcnF: // hyper increase
		d.rt += d.cfg.LineRateGbps / 100 // RHAI: 400 Mbps at 40G
	default: // additive increase
		d.rt += d.cfg.LineRateGbps / 1000 // RAI: 40 Mbps at 40G
	}
	d.rt = clamp(d.rt, minRateGbps, d.cfg.LineRateGbps)
	d.rc = clamp((d.rt+d.rc)/2, minRateGbps, d.cfg.LineRateGbps)
}

// OnAck implements transport.Controller. DCQCN ignores ACKs; the byte
// counter advances via OnSendBytes from SendDelay accounting.
func (d *DCQCN) OnAck(sim.Time, sim.Duration, int, bool) {}

// OnLoss implements transport.Controller. Losses are not a DCQCN signal;
// the go-back-N-with-backoff ablation (§4.3) found backoff did not help
// DCQCN, so it ignores every loss its sender reports.
func (d *DCQCN) OnLoss(sim.Time) {}

// SendDelay implements transport.Controller and drives the byte counter.
func (d *DCQCN) SendDelay(wire int) sim.Duration {
	d.OnSendBytes(wire)
	return rateToDelay(wire, d.rc)
}

// WindowPackets implements transport.Controller.
func (d *DCQCN) WindowPackets() int { return 0 }

// Stop cancels the controller's timers; call when the flow completes so
// the engine's event queue can drain.
func (d *DCQCN) Stop() {
	d.alphaTimer.Cancel()
	d.incTimer.Cancel()
}

var _ transport.Controller = (*DCQCN)(nil)
