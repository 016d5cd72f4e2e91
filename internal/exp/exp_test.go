package exp

import (
	"reflect"
	"strings"
	"testing"

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/hwmodel"
)

// Trend tests: the paper's headline findings must hold even at small
// scale. These use few flows so the whole file stays test-suite fast;
// absolute numbers are validated at larger scale by cmd/experiments and
// the benchmarks.

const trendFlows = 700

func trendScenario(mut func(*Scenario)) Scenario {
	s := Scenario{NumFlows: trendFlows, Seed: 11}
	if mut != nil {
		mut(&s)
	}
	return s
}

func TestTrendIRNBeatsRoCEWithPFC(t *testing.T) {
	irn := Run(trendScenario(func(s *Scenario) { s.Transport = TransportIRN }))
	roce := Run(trendScenario(func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }))
	if irn.Summary.Incomplete != 0 || roce.Summary.Incomplete != 0 {
		t.Fatalf("incomplete flows: irn=%d roce=%d", irn.Summary.Incomplete, roce.Summary.Incomplete)
	}
	// Takeaway 1 (§4.2): IRN without PFC performs better than RoCE with
	// PFC on all three metrics.
	if irn.AvgSlowdown >= roce.AvgSlowdown {
		t.Errorf("slowdown: IRN %.2f !< RoCE+PFC %.2f", irn.AvgSlowdown, roce.AvgSlowdown)
	}
	if irn.AvgFCT >= roce.AvgFCT {
		t.Errorf("avg FCT: IRN %v !< RoCE+PFC %v", irn.AvgFCT, roce.AvgFCT)
	}
}

func TestTrendRoCERequiresPFC(t *testing.T) {
	with := Run(trendScenario(func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }))
	without := Run(trendScenario(func(s *Scenario) { s.Transport = TransportRoCE }))
	// Takeaway 3 (§4.2.3): disabling PFC degrades RoCE.
	if without.AvgFCT <= with.AvgFCT {
		t.Errorf("RoCE avg FCT without PFC %v !> with PFC %v", without.AvgFCT, with.AvgFCT)
	}
	if without.Retransmits == 0 {
		t.Error("RoCE without PFC should retransmit heavily")
	}
	if with.Net.Drops != 0 {
		t.Errorf("PFC run dropped %d packets", with.Net.Drops)
	}
}

func TestTrendIRNDoesNotRequirePFC(t *testing.T) {
	without := Run(trendScenario(func(s *Scenario) { s.Transport = TransportIRN }))
	with := Run(trendScenario(func(s *Scenario) { s.Transport = TransportIRN; s.PFC = true }))
	// Takeaway 2 (§4.2.2): enabling PFC must not significantly improve
	// IRN (at depth it actively hurts). Allow a small tolerance at this
	// scale.
	if with.AvgFCT < sim75percent(without.AvgFCT) {
		t.Errorf("PFC improved IRN too much: %v vs %v", with.AvgFCT, without.AvgFCT)
	}
}

func sim75percent[T ~int64](v T) T { return v * 3 / 4 }

func TestTrendGoBackNHurts(t *testing.T) {
	irn := Run(trendScenario(nil))
	gbn := Run(trendScenario(func(s *Scenario) { s.Recovery = core.RecoveryGoBackN }))
	if gbn.AvgFCT <= irn.AvgFCT {
		t.Errorf("go-back-N FCT %v !> IRN %v", gbn.AvgFCT, irn.AvgFCT)
	}
	if gbn.Retransmits <= irn.Retransmits {
		t.Errorf("go-back-N retransmits %d !> IRN %d", gbn.Retransmits, irn.Retransmits)
	}
}

func TestTrendNoBDPFCHurts(t *testing.T) {
	irn := Run(trendScenario(nil))
	no := Run(trendScenario(func(s *Scenario) { s.NoBDPFC = true }))
	if no.AvgFCT <= irn.AvgFCT {
		t.Errorf("no-BDP-FC FCT %v !> IRN %v", no.AvgFCT, irn.AvgFCT)
	}
	if no.Net.Drops <= irn.Net.Drops {
		t.Errorf("no-BDP-FC drops %d !> IRN %d", no.Net.Drops, irn.Net.Drops)
	}
}

func TestTrendCCReducesDrops(t *testing.T) {
	plain := Run(trendScenario(nil))
	timely := Run(trendScenario(func(s *Scenario) { s.CC = CCTimely }))
	dcqcn := Run(trendScenario(func(s *Scenario) { s.CC = CCDCQCN }))
	if timely.Net.Drops >= plain.Net.Drops {
		t.Errorf("Timely drops %d !< no-CC %d", timely.Net.Drops, plain.Net.Drops)
	}
	if dcqcn.Net.Drops >= plain.Net.Drops {
		t.Errorf("DCQCN drops %d !< no-CC %d", dcqcn.Net.Drops, plain.Net.Drops)
	}
	if dcqcn.Net.ECNMarked == 0 {
		t.Error("DCQCN run never marked a packet")
	}
}

func TestTrendIncastComparable(t *testing.T) {
	// §4.4.3: incast without cross-traffic is PFC's best case; IRN must
	// stay comparable (paper: within 2.5%; we allow 15% at small scale).
	irn := Run(Scenario{Transport: TransportIRN, IncastM: 20, IncastBytes: 10_000_000, Seed: 3})
	roce := Run(Scenario{Transport: TransportRoCE, PFC: true, IncastM: 20, IncastBytes: 10_000_000, Seed: 3})
	if irn.RCT == 0 || roce.RCT == 0 {
		t.Fatalf("incast RCTs: irn=%v roce=%v", irn.RCT, roce.RCT)
	}
	ratio := float64(irn.RCT) / float64(roce.RCT)
	if ratio > 1.15 {
		t.Errorf("incast RCT ratio IRN/RoCE = %.3f, want <= 1.15", ratio)
	}
}

func TestTrendLossSweepIRNRobustRoCECollapses(t *testing.T) {
	// The extended paper's robustness result (FigureLoss acceptance): as
	// random loss grows to 1%, IRN's SACK recovery keeps goodput — FCTs
	// degrade gently — while RoCE's go-back-N collapses, even with PFC.
	lossy := func(tr Transport, pfc bool, rate float64) Result {
		return Run(trendScenario(func(s *Scenario) {
			s.Transport = tr
			s.PFC = pfc
			s.Faults.LossRate = rate
		}))
	}
	irn0 := Run(trendScenario(nil))
	irn1 := lossy(TransportIRN, false, 0.01)
	roce1 := lossy(TransportRoCE, true, 0.01)

	if irn1.Summary.Incomplete != 0 {
		t.Errorf("IRN left %d flows incomplete at 1%% loss", irn1.Summary.Incomplete)
	}
	// IRN retains goodput: bounded degradation versus the lossless run.
	if irn1.AvgFCT > 4*irn0.AvgFCT {
		t.Errorf("IRN avg FCT at 1%% loss %v > 4x lossless %v", irn1.AvgFCT, irn0.AvgFCT)
	}
	// RoCE collapses: go-back-N rewinds entire windows per loss.
	if roce1.AvgFCT < 3*irn1.AvgFCT {
		t.Errorf("RoCE+PFC avg FCT %v !>= 3x IRN %v at 1%% loss", roce1.AvgFCT, irn1.AvgFCT)
	}
	if roce1.Retransmits < 10*irn1.Retransmits {
		t.Errorf("RoCE retransmits %d !>= 10x IRN %d at 1%% loss", roce1.Retransmits, irn1.Retransmits)
	}
	// The losses really came from the fault model, not congestion.
	if roce1.Net.FaultDrops == 0 || irn1.Net.FaultDrops == 0 {
		t.Errorf("fault drops: roce=%d irn=%d, want > 0", roce1.Net.FaultDrops, irn1.Net.FaultDrops)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a := Run(trendScenario(nil))
	b := Run(trendScenario(nil))
	if a.AvgFCT != b.AvgFCT || a.Net.Drops != b.Net.Drops || a.Events != b.Events {
		t.Error("identical scenarios diverged")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s := Scenario{}.normalize()
	if s.Arity != 6 || s.Gbps != 40 || s.Load != 0.7 {
		t.Errorf("defaults wrong: %+v", s)
	}
	if s.RTOHigh == 0 || s.RTOLowN != 3 || s.NackThreshold != 1 {
		t.Errorf("IRN defaults wrong: %+v", s)
	}
}

// TestBDPCapFitsHardwareBitmap ties §6.1's sizing to the simulated
// default: the NIC keeps BDP-sized recovery bitmaps of hwmodel.Bits, so the
// default scenario's BDP cap must fit them at every fat-tree size. With
// the propagation delay and MTU constant, only Gbps and BDPCapScale move
// the cap; the IRN preset points that raise it past the bitmap are listed
// with the width each would need, in 32-bit chunks as §6.1 builds it.
// RoCE and iWARP keep no such bitmap, and the -no-bdpfc ablation (§4.3)
// is exempt: it sends without the cap, so no bitmap bounds its window.
func TestBDPCapFitsHardwareBitmap(t *testing.T) {
	for k := 4; k <= 16; k += 2 {
		if c := (Scenario{Arity: k}).normalize().bdpCap(); c > hwmodel.Bits {
			t.Errorf("k=%d: default BDP cap %d packets does not fit the %d-bit bitmap", k, c, hwmodel.Bits)
		}
	}
	want := map[string]int{"ablations: BDP cap x2": 224, "ablations: BDP cap x4": 448}
	for _, v := range []string{"IRN", "IRN+PFC", "IRN+Timely", "IRN+Timely+PFC", "IRN+DCQCN", "IRN+DCQCN+PFC"} {
		want["tableA4: "+v+" [bw=100Gbps]"] = 288
	}
	got := map[string]int{}
	for _, e := range All(BenchScale()) {
		for _, s := range e.Scenarios {
			if s.Transport != TransportIRN || s.NoBDPFC {
				continue
			}
			if c := s.normalize().bdpCap(); c > hwmodel.Bits {
				got[e.ID+": "+s.Name] = (c + 31) / 32 * 32
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("preset points past the %d-bit bitmap, with the width each needs:\n got %v\nwant %v", hwmodel.Bits, got, want)
	}
}

func TestPresetsRegistry(t *testing.T) {
	sc := BenchScale()
	all := All(sc)
	if len(all) < 20 {
		t.Fatalf("experiments = %d, want >= 20", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Description == "" || len(e.Scenarios) == 0 {
			t.Errorf("experiment %q malformed", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
		for _, s := range e.Scenarios {
			if s.Name == "" {
				t.Errorf("experiment %q has unnamed scenario", e.ID)
			}
		}
	}
	for _, want := range []string{"fig1", "fig7", "fig9", "fig12", "tableA3", "tableA9", "ablations"} {
		if _, ok := ByID(want, sc); !ok {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, ok := ByID("nope", sc); ok {
		t.Error("ByID should miss")
	}
}

func TestRenderFormats(t *testing.T) {
	// Small smoke render per kind — exercised on tiny synthetic results.
	mkRes := func(name string, m int, tr Transport) Result {
		r := Result{Name: name}
		r.Scenario.IncastM = m
		r.Scenario.Transport = tr
		r.Summary.AvgSlowdown = 2
		r.RCT = 1000
		return r
	}
	bars := Render(Experiment{ID: "x", Description: "d"}, []Result{mkRes("a", 0, TransportIRN)})
	if !strings.Contains(bars, "avg_slowdown") || !strings.Contains(bars, "=== x") {
		t.Errorf("bars render: %q", bars)
	}
	incast := Render(Experiment{ID: "y", Description: "d", Kind: ReportIncast},
		[]Result{mkRes("roce", 10, TransportRoCE), mkRes("irn", 10, TransportIRN)})
	if !strings.Contains(incast, "RCT ratio") {
		t.Errorf("incast render: %q", incast)
	}
	cdf := Render(Experiment{ID: "z", Description: "d", Kind: ReportCDF}, []Result{mkRes("a", 0, TransportIRN)})
	if !strings.Contains(cdf, "p99.9_ms") {
		t.Errorf("cdf render: %q", cdf)
	}
	ratios := Render(Experiment{ID: "w", Description: "d", Kind: ReportRatios},
		[]Result{mkRes("a", 0, TransportIRN), mkRes("b", 0, TransportIRN), mkRes("c", 0, TransportRoCE)})
	if !strings.Contains(ratios, "IRN/(RoCE+PFC)") {
		t.Errorf("ratios render: %q", ratios)
	}
}

// TestAblationBackoffBites: the §4.3 go-back-N-with-backoff row is not a
// relabelled go-back-N row. At a scale where go-back-N drops packets,
// Timely's loss backoff must change the run.
func TestAblationBackoffBites(t *testing.T) {
	rows := map[string]Result{}
	for _, s := range Ablations(Scale{Flows: 600}).Scenarios {
		if s.Name == "GBN+backoff+Timely" || s.Name == "GBN+Timely" {
			rows[s.Name] = Run(s)
		}
	}
	backoff, plain := rows["GBN+backoff+Timely"], rows["GBN+Timely"]
	if plain.Net.Drops == 0 {
		t.Fatal("GBN+Timely dropped nothing: the scale no longer exercises loss")
	}
	b, p := toGoldenRow(backoff), toGoldenRow(plain)
	b.Name, p.Name = "", ""
	if b == p {
		t.Errorf("GBN+backoff+Timely ran exactly as GBN+Timely: %+v", p)
	}
}
