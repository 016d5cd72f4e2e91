package irn_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/irnsim/irn"
)

// run runs cfg and fails the test on an error.
func run(t *testing.T, cfg irn.Config) irn.Result {
	t.Helper()
	r, err := irn.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunDefaultsProduceMetrics(t *testing.T) {
	r := run(t, irn.Config{NumFlows: 300})
	if r.Summary.Flows != 300 || r.Summary.Incomplete != 0 {
		t.Fatalf("completed=%d incomplete=%d", r.Summary.Flows, r.Summary.Incomplete)
	}
	if r.AvgSlowdown < 1 {
		t.Errorf("slowdown %v below 1 is impossible", r.AvgSlowdown)
	}
	if r.AvgFCT.Millis() <= 0 || r.TailFCT < r.AvgFCT {
		t.Errorf("FCTs: avg=%v p99=%v", r.AvgFCT.Millis(), r.TailFCT.Millis())
	}
	if len(r.SinglePktCDF) != 4 {
		t.Errorf("tail points = %d", len(r.SinglePktCDF))
	}
	if r.Events == 0 {
		t.Error("no events executed")
	}
}

func TestRunHeadlineComparison(t *testing.T) {
	irnRes := run(t, irn.Config{Transport: irn.TransportIRN, NumFlows: 500})
	roce := run(t, irn.Config{Transport: irn.TransportRoCE, PFC: true, NumFlows: 500})
	if irnRes.AvgSlowdown >= roce.AvgSlowdown {
		t.Errorf("IRN slowdown %.2f !< RoCE+PFC %.2f", irnRes.AvgSlowdown, roce.AvgSlowdown)
	}
	if roce.Net.Drops != 0 {
		t.Errorf("RoCE+PFC dropped %d packets", roce.Net.Drops)
	}
	if roce.Net.PauseFrames == 0 {
		t.Error("PFC run generated no pauses at 70% load")
	}
}

func TestRunIncastMode(t *testing.T) {
	r := run(t, irn.Config{IncastM: 10, Seed: 2})
	if r.RCT <= 0 {
		t.Fatalf("RCT = %v", r.RCT.Millis())
	}
	if r.Summary.Flows != 10 {
		t.Errorf("completed = %d, want 10 incast flows", r.Summary.Flows)
	}
}

func TestRunAblationKnobs(t *testing.T) {
	// 800 flows at the default load: enough congestion for losses, so
	// the recovery ablations separate.
	gbn := run(t, irn.Config{Recovery: irn.RecoveryGoBackN, NumFlows: 800, Seed: 11})
	sack := run(t, irn.Config{NumFlows: 800, Seed: 11})
	if sack.Net.Drops == 0 {
		t.Fatal("expected drops at this scale; ablation comparison void")
	}
	if gbn.AvgFCT <= sack.AvgFCT {
		t.Errorf("go-back-N FCT %.4f !> SACK %.4f", gbn.AvgFCT.Millis(), sack.AvgFCT.Millis())
	}
	noFC := run(t, irn.Config{NoBDPFC: true, NumFlows: 800, Seed: 11})
	if noFC.Net.Drops <= sack.Net.Drops {
		t.Errorf("no-BDPFC drops %d !> default %d", noFC.Net.Drops, sack.Net.Drops)
	}
}

// TestRunRejectsBadConfig: a Config no run can take is an error from Run,
// naming the field, not a panic deep in the simulator (odd arity,
// negative header bytes), a run that reports every flow incomplete (an
// unknown transport) or one that runs silently wrong (a timeout past a
// 64th of the clock, where the sums a run forms wrap).
func TestRunRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  irn.Config
		want string
	}{
		{"odd arity", irn.Config{Arity: 5}, "Arity"},
		{"negative extra header", irn.Config{ExtraHeader: -1000}, "ExtraHeader"},
		{"unknown transport", irn.Config{Transport: 7}, "Transport"},
		{"RTOHigh past the clock bound", irn.Config{RTOHigh: math.MaxInt64}, "RTOHigh"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.NumFlows = 10
			if _, err := irn.Run(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error %v, want one naming %s", err, tc.want)
			}
		})
	}
}

func TestVerbsPublicSurface(t *testing.T) {
	eng := irn.NewEngine()
	var a, b *irn.QP
	wireTo := func(dst **irn.QP) irn.Wire {
		return irn.WireFunc(func(p *irn.VPacket) {
			pp := p
			eng.After(irn.Microseconds(2), func() { (*dst).Receive(pp, eng.Now()) })
		})
	}
	memA, memB := irn.NewMemory(), irn.NewMemory()
	cqA, cqB := &irn.CQ{}, &irn.CQ{}
	a = irn.NewQP("a", eng, irn.DefaultQPConfig(), wireTo(&b), memA, cqA)
	b = irn.NewQP("b", eng, irn.DefaultQPConfig(), wireTo(&a), memB, cqB)

	dst := make([]byte, 4096)
	memB.Register(1, dst)
	payload := bytes.Repeat([]byte{0x5a}, 2500)
	if err := a.PostSend(irn.Request{ID: 1, Op: irn.OpWrite, Data: payload, RKey: 1, VA: 0}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(dst[:len(payload)], payload) {
		t.Fatal("write did not land")
	}
	if got := cqA.Poll(); len(got) != 1 || got[0].WQEID != 1 {
		t.Fatalf("CQEs: %+v", got)
	}
}
