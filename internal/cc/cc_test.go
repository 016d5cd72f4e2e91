package cc

import (
	"testing"

	"github.com/irnsim/irn/internal/sim"
)

func TestRateToDelay(t *testing.T) {
	// 1000 bytes at 40 Gbps = 200 ns = 200_000 ps.
	if d := rateToDelay(1000, 40); d != 200_000 {
		t.Errorf("delay = %d ps, want 200000", int64(d))
	}
	// Zero/negative rate → effectively infinite.
	if d := rateToDelay(1000, 0); d < sim.Duration(1)<<60 {
		t.Errorf("zero rate delay too small: %d", int64(d))
	}
}

func TestTimelyStartsAtLineRate(t *testing.T) {
	cfg := DefaultTimelyConfig(40, 24*sim.Microsecond)
	tm := NewTimely(cfg)
	if tm.RateGbps() != 40 {
		t.Errorf("initial rate = %v", tm.RateGbps())
	}
	if tm.WindowPackets() != 0 {
		t.Error("Timely must not impose a window")
	}
}

func TestTimelyDecreasesOnRisingRTT(t *testing.T) {
	cfg := DefaultTimelyConfig(40, 24*sim.Microsecond)
	tm := NewTimely(cfg)
	// Feed steadily rising RTT samples between TLow and THigh: positive
	// gradient → multiplicative decrease.
	rtt := 100 * sim.Microsecond
	for i := 0; i < 20; i++ {
		tm.OnAck(0, rtt, 1, false)
		rtt += 20 * sim.Microsecond
		if rtt > 450*sim.Microsecond {
			rtt = 450 * sim.Microsecond
		}
	}
	if tm.RateGbps() >= 40 {
		t.Errorf("rate did not decrease: %v", tm.RateGbps())
	}
}

func TestTimelyIncreasesOnLowRTT(t *testing.T) {
	cfg := DefaultTimelyConfig(40, 24*sim.Microsecond)
	tm := NewTimely(cfg)
	// Push the rate down first.
	for i := 0; i < 30; i++ {
		tm.OnAck(0, sim.Duration(100+i*30)*sim.Microsecond, 1, false)
	}
	low := tm.RateGbps()
	// RTT below TLow: additive increase regardless of gradient.
	for i := 0; i < 50; i++ {
		tm.OnAck(0, 30*sim.Microsecond, 1, false)
	}
	if tm.RateGbps() <= low {
		t.Errorf("rate did not recover: %v <= %v", tm.RateGbps(), low)
	}
}

func TestTimelyHAIKicksIn(t *testing.T) {
	cfg := DefaultTimelyConfig(40, 24*sim.Microsecond)
	step := cfg.LineRateGbps / 1000 // δ
	tm := NewTimely(cfg)
	for i := 0; i < 40; i++ {
		tm.OnAck(0, sim.Duration(100+i*30)*sim.Microsecond, 1, false)
	}
	start := tm.RateGbps()
	// Flat RTT in the stable band → non-positive gradient. After
	// timelyHAIAfter events, each step should be 5δ.
	for i := 0; i < 4; i++ {
		tm.OnAck(0, 100*sim.Microsecond, 1, false)
	}
	base := tm.RateGbps()
	for i := 0; i < 10; i++ {
		tm.OnAck(0, 100*sim.Microsecond, 1, false)
	}
	haiGain := tm.RateGbps() - base
	if haiGain < 10*5*step*0.99 {
		t.Errorf("HAI gain %v over 10 events too small (start %v)", haiGain, start)
	}
}

func TestTimelyTHighAlwaysDecreases(t *testing.T) {
	cfg := DefaultTimelyConfig(40, 24*sim.Microsecond)
	tm := NewTimely(cfg)
	tm.OnAck(0, 100*sim.Microsecond, 1, false)
	// Even a falling RTT must decrease the rate when above THigh.
	tm.OnAck(0, 900*sim.Microsecond, 1, false)
	r1 := tm.RateGbps()
	tm.OnAck(0, 800*sim.Microsecond, 1, false)
	if tm.RateGbps() >= r1 {
		t.Errorf("rate above THigh must keep decreasing: %v >= %v", tm.RateGbps(), r1)
	}
}

func TestTimelyLossBackoff(t *testing.T) {
	cfg := DefaultTimelyConfig(40, 24*sim.Microsecond)
	tm := NewTimely(cfg)
	tm.OnLoss(0)
	if tm.RateGbps() != 40 {
		t.Error("backoff disabled: loss must not cut rate")
	}
	cfg.LossBackoff = true
	tm = NewTimely(cfg)
	tm.OnLoss(0)
	if tm.RateGbps() != 20 {
		t.Errorf("backoff enabled: rate = %v, want 20", tm.RateGbps())
	}
}

func TestDCQCNDecreaseOnCNP(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDCQCN(eng, nil, DefaultDCQCNConfig(40))
	if d.RateGbps() != 40 {
		t.Fatalf("initial rate = %v", d.RateGbps())
	}
	d.OnCNP(0)
	// α starts at 1 → first cut halves the rate.
	if d.RateGbps() != 20 {
		t.Errorf("rate after first CNP = %v, want 20", d.RateGbps())
	}
	if d.Decreases != 1 {
		t.Errorf("Decreases = %d", d.Decreases)
	}
	d.Stop()
}

func TestDCQCNAlphaDecays(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDCQCN(eng, nil, DefaultDCQCNConfig(40))
	d.OnCNP(0)
	a0 := d.Alpha()
	// Run the engine forward ~10 alpha periods with no CNPs.
	eng.RunUntil(sim.Time(10 * dcqcnAlphaTimer))
	if d.Alpha() >= a0 {
		t.Errorf("alpha did not decay: %v >= %v", d.Alpha(), a0)
	}
	d.Stop()
}

func TestDCQCNRecoversViaTimer(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDCQCN(eng, nil, DefaultDCQCNConfig(40))
	d.OnCNP(0)
	cut := d.RateGbps()
	// Timer-driven fast recovery should move rc halfway back to rt
	// repeatedly: after a few periods the rate approaches the target.
	eng.RunUntil(sim.Time(4 * dcqcnIncreaseTimer))
	if d.RateGbps() <= cut {
		t.Errorf("rate did not recover: %v <= %v", d.RateGbps(), cut)
	}
	d.Stop()
}

func TestDCQCNByteCounterIncrease(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDCQCN(eng, nil, DefaultDCQCNConfig(40))
	d.OnCNP(0)
	cut := d.RateGbps()
	for i := 0; i < 2; i++ {
		d.OnSendBytes(dcqcnByteCounter)
	}
	if d.RateGbps() <= cut {
		t.Errorf("byte counter did not drive recovery: %v", d.RateGbps())
	}
	d.Stop()
}

func TestDCQCNHyperIncreaseEngages(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDCQCN(eng, nil, DefaultDCQCNConfig(40))
	d.OnCNP(0)
	// Drive both byte and timer stages past F.
	for i := 0; i < dcqcnF+3; i++ {
		d.OnSendBytes(dcqcnByteCounter)
	}
	eng.RunUntil(sim.Time(sim.Duration(dcqcnF+3) * dcqcnIncreaseTimer))
	r := d.RateGbps()
	for i := 0; i < 5; i++ {
		d.OnSendBytes(dcqcnByteCounter)
	}
	gain := d.RateGbps() - r
	if gain <= 0 {
		t.Errorf("hyper increase did not raise rate (gain %v)", gain)
	}
	d.Stop()
}

func TestAIMD(t *testing.T) {
	a := NewAIMD(100)
	if a.WindowPackets() != 100 {
		t.Fatalf("initial window = %d", a.WindowPackets())
	}
	// ~100 acked packets ≈ +1 window.
	for i := 0; i < 100; i++ {
		a.OnAck(0, 0, 1, false)
	}
	if w := a.WindowPackets(); w < 100 || w > 102 {
		t.Errorf("window after one RTT of acks = %d, want ~101", w)
	}
	a.OnLoss(0)
	if w := a.WindowPackets(); w > 51 {
		t.Errorf("window after loss = %d, want ~halved", w)
	}
	for i := 0; i < 1000; i++ {
		a.OnLoss(0)
	}
	if a.WindowPackets() < 1 {
		t.Error("window must not fall below 1")
	}
	if a.SendDelay(1000) != 0 {
		t.Error("AIMD must not pace")
	}
}

func TestAIMDECNEchoActsAsLoss(t *testing.T) {
	a := NewAIMD(64)
	a.OnAck(0, 0, 1, true)
	if w := a.WindowPackets(); w != 32 {
		t.Errorf("window after ECN echo = %d, want 32", w)
	}
}

func TestDCTCPGentleDecrease(t *testing.T) {
	d := NewDCTCP(100)
	// One observation window with 50% marks: alpha ≈ g·0.5, cut is
	// gentler than halving.
	for i := 0; i < 100; i++ {
		d.OnAck(0, 0, 1, i%2 == 0)
	}
	w := d.WindowPackets()
	if w <= 50 || w >= 100 {
		t.Errorf("DCTCP window = %d, want gentle cut between 50 and 100", w)
	}
	if d.Alpha() <= 0 {
		t.Error("alpha should be positive after marks")
	}
}

func TestDCTCPGrowsWithoutMarks(t *testing.T) {
	d := NewDCTCP(10)
	for i := 0; i < 100; i++ {
		d.OnAck(0, 0, 1, false)
	}
	if d.WindowPackets() <= 10 {
		t.Errorf("window did not grow: %d", d.WindowPackets())
	}
	d.OnLoss(0)
	if d.WindowPackets() > 10 {
		t.Errorf("loss must halve the window: %d", d.WindowPackets())
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 1, 10) != 5 || clamp(0, 1, 10) != 1 || clamp(20, 1, 10) != 10 {
		t.Error("clamp broken")
	}
}
