package exp

import (
	"fmt"

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// Experiment groups the scenario variants that regenerate one figure or
// table of the paper.
type Experiment struct {
	ID          string
	Description string
	Scenarios   []Scenario
	// Kind hints the report renderer (comparison bars, ratio table,
	// CDF, incast series).
	Kind ReportKind
}

// ReportKind selects the rendering of an experiment's results.
type ReportKind uint8

// Report kinds.
const (
	ReportBars   ReportKind = iota // side-by-side metric comparison
	ReportRatios                   // appendix-style ratio tables
	ReportCDF                      // Figure 8 tail CDFs
	ReportIncast                   // Figure 9 RCT ratios
	ReportFlap                     // FigureFlap RCT-vs-flapped-links series
	ReportKV                       // FigureKV availability / commit-latency tables
)

// Scale globally adjusts experiment size: the number of Poisson flows per
// run. The paper's runs use tens of thousands of flows on a testbed-grade
// simulator; the default here keeps a full suite run in minutes. Results
// converge (slowly) toward steady state as this grows.
type Scale struct {
	Flows       int
	IncastBytes int
	IncastReps  int
}

// DefaultScale is used by cmd/experiments (plausible fidelity in minutes).
func DefaultScale() Scale {
	return Scale{Flows: 4000, IncastBytes: 15_000_000, IncastReps: 3}
}

// BenchScale is used by bench_test.go (fast regression signal).
func BenchScale() Scale {
	return Scale{Flows: 1000, IncastBytes: 6_000_000, IncastReps: 1}
}

// base returns the paper's default-case scenario at the given scale.
func base(sc Scale) Scenario {
	return Scenario{NumFlows: sc.Flows}
}

func named(s Scenario, name string, mut func(*Scenario)) Scenario {
	s.Name = name
	if mut != nil {
		mut(&s)
	}
	return s
}

// Figure1 compares IRN (without PFC) against RoCE (with PFC).
func Figure1(sc Scale) Experiment {
	return Experiment{
		ID:          "fig1",
		Description: "IRN vs RoCE (no explicit congestion control)",
		Scenarios: []Scenario{
			named(base(sc), "RoCE (with PFC)", func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }),
			named(base(sc), "IRN (without PFC)", func(s *Scenario) { s.Transport = TransportIRN }),
		},
	}
}

// Figure2 measures the impact of enabling PFC with IRN.
func Figure2(sc Scale) Experiment {
	return Experiment{
		ID:          "fig2",
		Description: "Impact of enabling PFC with IRN",
		Scenarios: []Scenario{
			named(base(sc), "IRN with PFC", func(s *Scenario) { s.Transport = TransportIRN; s.PFC = true }),
			named(base(sc), "IRN (without PFC)", func(s *Scenario) { s.Transport = TransportIRN }),
		},
	}
}

// Figure3 measures the impact of disabling PFC with RoCE.
func Figure3(sc Scale) Experiment {
	return Experiment{
		ID:          "fig3",
		Description: "Impact of disabling PFC with RoCE",
		Scenarios: []Scenario{
			named(base(sc), "RoCE (with PFC)", func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }),
			named(base(sc), "RoCE without PFC", func(s *Scenario) { s.Transport = TransportRoCE }),
		},
	}
}

// Figure4 compares IRN and RoCE under Timely and DCQCN.
func Figure4(sc Scale) Experiment {
	e := Experiment{ID: "fig4", Description: "IRN vs RoCE with explicit congestion control (Timely, DCQCN)"}
	for _, kind := range []CCKind{CCTimely, CCDCQCN} {
		e.Scenarios = append(e.Scenarios,
			named(base(sc), fmt.Sprintf("RoCE+%s (with PFC)", kind), func(s *Scenario) {
				s.Transport = TransportRoCE
				s.CC = kind
				s.PFC = true
			}),
			named(base(sc), fmt.Sprintf("IRN+%s (without PFC)", kind), func(s *Scenario) {
				s.Transport = TransportIRN
				s.CC = kind
			}),
		)
	}
	return e
}

// Figure5 measures PFC's impact on IRN under Timely and DCQCN.
func Figure5(sc Scale) Experiment {
	e := Experiment{ID: "fig5", Description: "Impact of enabling PFC with IRN under Timely/DCQCN"}
	for _, kind := range []CCKind{CCTimely, CCDCQCN} {
		e.Scenarios = append(e.Scenarios,
			named(base(sc), fmt.Sprintf("IRN+%s with PFC", kind), func(s *Scenario) {
				s.Transport = TransportIRN
				s.CC = kind
				s.PFC = true
			}),
			named(base(sc), fmt.Sprintf("IRN+%s (without PFC)", kind), func(s *Scenario) {
				s.Transport = TransportIRN
				s.CC = kind
			}),
		)
	}
	return e
}

// Figure6 measures PFC's impact on RoCE under Timely and DCQCN. The
// RoCE+DCQCN-without-PFC row is Resilient RoCE (§4.5, footnote 3).
func Figure6(sc Scale) Experiment {
	e := Experiment{ID: "fig6", Description: "Impact of disabling PFC with RoCE under Timely/DCQCN"}
	for _, kind := range []CCKind{CCTimely, CCDCQCN} {
		e.Scenarios = append(e.Scenarios,
			named(base(sc), fmt.Sprintf("RoCE+%s (with PFC)", kind), func(s *Scenario) {
				s.Transport = TransportRoCE
				s.CC = kind
				s.PFC = true
			}),
			named(base(sc), fmt.Sprintf("RoCE+%s without PFC", kind), func(s *Scenario) {
				s.Transport = TransportRoCE
				s.CC = kind
			}),
		)
	}
	return e
}

// Figure7 is the factor analysis: default IRN vs go-back-N recovery vs
// disabled BDP-FC, for each congestion-control setting.
func Figure7(sc Scale) Experiment {
	e := Experiment{ID: "fig7", Description: "Factor analysis of IRN (loss recovery vs BDP-FC)"}
	for _, kind := range []CCKind{CCNone, CCTimely, CCDCQCN} {
		suffix := ""
		if kind != CCNone {
			suffix = "+" + kind.String()
		}
		e.Scenarios = append(e.Scenarios,
			named(base(sc), "IRN"+suffix, func(s *Scenario) { s.CC = kind }),
			named(base(sc), "IRN"+suffix+" with Go-Back-N", func(s *Scenario) {
				s.CC = kind
				s.Recovery = core.RecoveryGoBackN
			}),
			named(base(sc), "IRN"+suffix+" without BDP-FC", func(s *Scenario) {
				s.CC = kind
				s.NoBDPFC = true
			}),
		)
	}
	return e
}

// Figure8 collects the single-packet-message tail latency CDFs for IRN,
// IRN+PFC and RoCE+PFC across congestion-control schemes.
func Figure8(sc Scale) Experiment {
	e := Experiment{ID: "fig8", Description: "Tail latency CDF for single-packet messages", Kind: ReportCDF}
	for _, kind := range []CCKind{CCNone, CCTimely, CCDCQCN} {
		suffix := ""
		if kind != CCNone {
			suffix = "+" + kind.String()
		}
		e.Scenarios = append(e.Scenarios,
			named(base(sc), "RoCE"+suffix+" (with PFC)", func(s *Scenario) {
				s.Transport = TransportRoCE
				s.CC = kind
				s.PFC = true
			}),
			named(base(sc), "IRN"+suffix+" with PFC", func(s *Scenario) {
				s.CC = kind
				s.PFC = true
			}),
			named(base(sc), "IRN"+suffix+" (without PFC)", func(s *Scenario) { s.CC = kind }),
		)
	}
	return e
}

// Figure9 sweeps incast fan-in M, comparing IRN (no PFC) against RoCE
// (PFC) on request completion time.
func Figure9(sc Scale) Experiment {
	e := Experiment{ID: "fig9", Description: "Incast RCT ratio (IRN/RoCE) vs fan-in", Kind: ReportIncast}
	for _, m := range []int{10, 20, 30, 40, 50} {
		for rep := 0; rep < sc.IncastReps; rep++ {
			seed := uint64(1000*m + rep + 1)
			e.Scenarios = append(e.Scenarios,
				named(Scenario{}, fmt.Sprintf("RoCE+PFC incast M=%d rep=%d", m, rep), func(s *Scenario) {
					s.Transport = TransportRoCE
					s.PFC = true
					s.IncastM = m
					s.IncastBytes = sc.IncastBytes
					s.NumFlows = 0
					s.Seed = seed
				}),
				named(Scenario{}, fmt.Sprintf("IRN incast M=%d rep=%d", m, rep), func(s *Scenario) {
					s.Transport = TransportIRN
					s.IncastM = m
					s.IncastBytes = sc.IncastBytes
					s.NumFlows = 0
					s.Seed = seed
				}),
			)
		}
	}
	return e
}

// FigureScale is the scale-up experiment the timing-wheel scheduler and
// zero-rebuild trials make practical: the paper's comparison on the
// largest fat-tree (k=10, 250 hosts) with the flow population scaled up —
// 1024 flows at the default CLI scale, proportionally fewer at reduced
// test scales. Under the old binary-heap engine this preset's event
// volume made routine runs impractically slow; it now rides the same
// fleet path as every other figure.
func FigureScale(sc Scale) Experiment {
	// Scale the flow count against the default-suite baseline so the
	// invariant harness (tiny scale) stays fast while `experiments -run
	// figscale` gets the headline 1024-flow run.
	flows := sc.Flows * 1024 / DefaultScale().Flows
	if flows < 16 {
		flows = 16
	}
	mk := func(name string, mut func(*Scenario)) Scenario {
		return named(Scenario{Arity: 10, NumFlows: flows}, name, mut)
	}
	return Experiment{
		ID:          "figscale",
		Description: fmt.Sprintf("Scale-up: k=10 fat-tree (250 hosts), %d flows, IRN vs RoCE", flows),
		Scenarios: []Scenario{
			mk("RoCE+PFC k=10", func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }),
			mk("IRN k=10", func(s *Scenario) { s.Transport = TransportIRN }),
		},
	}
}

// FigureDC is the datacenter-scale preset the streaming collectors make
// possible: a k=16 fat-tree (1024 hosts) under an open-loop Poisson
// arrival process with the empirical Hadoop flow-size distribution at
// 60% load. It runs exactly the scale's flow count, floored at 64; the
// datacenter run is `-flows 100000`, where a record-retaining collector
// would hold every flow alive and the streaming one holds two fixed
// sketches per shard.
func FigureDC(sc Scale) Experiment {
	flows := sc.Flows
	if flows < 64 {
		flows = 64
	}
	mk := func(name string, mut func(*Scenario)) Scenario {
		return named(Scenario{
			Arity:    16,
			NumFlows: flows,
			Load:     0.6,
			Workload: WorkloadHadoop,
		}, name, mut)
	}
	return Experiment{
		ID:          "figdc",
		Description: fmt.Sprintf("Datacenter scale: k=16 fat-tree (1024 hosts), %d Hadoop flows at 60%% load", flows),
		Scenarios: []Scenario{
			mk("RoCE+PFC k=16", func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }),
			mk("IRN k=16", func(s *Scenario) { s.Transport = TransportIRN }),
		},
	}
}

// LossRates is the random per-link loss sweep of the extended paper's
// robustness appendix (arXiv:1806.08159): 0.001% to 1%.
var LossRates = []float64{0.00001, 0.0001, 0.001, 0.01}

// FigureLoss sweeps a uniform random per-link loss rate, IRN (no PFC)
// against RoCE (with PFC), reproducing the robustness table of the
// extended paper: IRN's SACK recovery retransmits only what was lost, so
// goodput holds as the rate grows; RoCE's go-back-N rewinds the whole
// in-flight window on every loss and collapses. PFC does not protect RoCE
// here — these losses are not congestion.
func FigureLoss(sc Scale) Experiment {
	e := Experiment{ID: "figloss", Description: "Robustness to random packet loss (IRN vs RoCE+PFC, loss 0.001%-1%)"}
	for _, rate := range LossRates {
		rate := rate
		label := fmt.Sprintf("loss=%g%%", rate*100)
		e.Scenarios = append(e.Scenarios,
			named(base(sc), "RoCE+PFC "+label, func(s *Scenario) {
				s.Transport = TransportRoCE
				s.PFC = true
				s.Faults.LossRate = rate
			}),
			named(base(sc), "IRN "+label, func(s *Scenario) {
				s.Transport = TransportIRN
				s.Faults.LossRate = rate
			}),
		)
	}
	return e
}

// flapSeed fixes the flap-link choice across the FigureFlap sweep so every
// scenario pair fails the same links.
const flapSeed = 2718

// FigureFlap sweeps transient link failures under incast with background
// load: n fabric links flap (400 µs down, three times, 800 µs apart)
// while an M=30 incast runs over a 50%-load Poisson workload. IRN drops
// the in-flight packets of a failed link and selectively retransmits them
// over the rerouted path; RoCE+PFC turns each failed port into a PFC
// back-pressure tree while go-back-N rewinds entire windows for the
// packets that died on the wire.
func FigureFlap(sc Scale) Experiment {
	e := Experiment{ID: "figflap", Description: "Robustness to link flaps under incast (IRN vs RoCE+PFC)", Kind: ReportFlap}
	// Flap link indexes are compiled against this topology, so the
	// scenarios pin Arity to it explicitly: a drifted default would
	// silently remap the indexes onto different links.
	const flapArity = 6
	t := topo.NewFatTree(flapArity)
	for _, n := range []int{0, 8, 16, 32} {
		flaps := fault.PeriodicFlaps(t, n,
			sim.Time(100*sim.Microsecond), 800*sim.Microsecond, 400*sim.Microsecond, 3, flapSeed)
		mk := func(name string, mut func(*Scenario)) Scenario {
			return named(Scenario{
				Arity:       flapArity,
				IncastM:     30,
				IncastBytes: sc.IncastBytes,
				NumFlows:    sc.Flows / 2,
				Load:        0.5,
				Seed:        7,
				Faults:      fault.Spec{Flaps: flaps},
				// Keep the transport config identical across the sweep:
				// without this the flaps=0 baseline would run RoCE with
				// timeouts disabled while every faulted point enables
				// them, confounding the series.
				RoCETimeouts: true,
			}, name, mut)
		}
		e.Scenarios = append(e.Scenarios,
			mk(fmt.Sprintf("RoCE+PFC incast flaps=%d", n), func(s *Scenario) {
				s.Transport = TransportRoCE
				s.PFC = true
			}),
			mk(fmt.Sprintf("IRN incast flaps=%d", n), func(s *Scenario) {
				s.Transport = TransportIRN
			}),
		)
	}
	return e
}

// chaosSeed fixes the chaos-suite link sampling across the FigureChaos
// pair so both transports see the same failure sequence.
const chaosSeed = 3141

// FigureChaos runs a named chaos suite — the rolling drain/flap/brownout
// rotation — on the paper's default fat-tree, IRN (no PFC) against
// RoCE+PFC. It is the sequenced-failure complement to figloss/figflap's
// static knobs: pods drain, sampled fabric links flap, core uplinks brown
// out with loss bursts, with recovery gaps between cycles.
//
// The cycle length is a multiple of the 2 µs link propagation (the
// lookahead), so with the suite's 1/8, 1/3, 1/2 and 2/3 cycle
// subdivisions every transition lands exactly on a safe-window boundary,
// and the drain/brownout phases target agg-core uplinks. Like every
// faulted scenario it runs serial (see Scenario.Shards).
func FigureChaos(sc Scale) Experiment {
	// Chaos-suite link samples are compiled against this topology, so the
	// scenarios pin Arity explicitly, like figflap.
	const chaosArity = 6
	t := topo.NewFatTree(chaosArity)
	suite, ok := fault.SuiteByName("rolling")
	if !ok {
		panic("exp: chaos suite \"rolling\" missing")
	}
	// 48 µs cycles starting at 100 µs: every subdivision the suite uses
	// (cycle/8 = 6 µs, cycle/3 = 16 µs, cycle/2 = 24 µs, 2·cycle/3 =
	// 32 µs) is a multiple of the 2 µs lookahead.
	spec := suite.Build(t, sim.Time(100*sim.Microsecond), 48*sim.Microsecond, 6, chaosSeed).MustCompile(t)
	mk := func(name string, mut func(*Scenario)) Scenario {
		return named(Scenario{
			Arity:    chaosArity,
			NumFlows: sc.Flows,
			Faults:   spec,
		}, name, mut)
	}
	return Experiment{
		ID:          "figchaos",
		Description: "Chaos suite \"rolling\" (pod drains, flap storms, brownouts) — IRN vs RoCE+PFC",
		Scenarios: []Scenario{
			mk("RoCE+PFC chaos", func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }),
			mk("IRN chaos", func(s *Scenario) { s.Transport = TransportIRN }),
		},
	}
}

// IncastCrossTraffic is the §4.4.3 variant: M=30 incast over a 50%-load
// background workload.
func IncastCrossTraffic(sc Scale) Experiment {
	mk := func(name string, mut func(*Scenario)) Scenario {
		return named(Scenario{
			IncastM:     30,
			IncastBytes: sc.IncastBytes,
			NumFlows:    sc.Flows / 2,
			Load:        0.5,
		}, name, mut)
	}
	return Experiment{
		ID:          "incast-cross",
		Description: "Incast (M=30) with 50% background load",
		Kind:        ReportIncast,
		Scenarios: []Scenario{
			mk("RoCE+PFC", func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }),
			mk("IRN", func(s *Scenario) { s.Transport = TransportIRN }),
			mk("IRN with PFC", func(s *Scenario) { s.Transport = TransportIRN; s.PFC = true }),
		},
	}
}

// Figure10 compares Resilient RoCE (RoCE+DCQCN without PFC) against plain
// IRN.
func Figure10(sc Scale) Experiment {
	return Experiment{
		ID:          "fig10",
		Description: "Resilient RoCE (RoCE+DCQCN, no PFC) vs IRN (no CC, no PFC)",
		Scenarios: []Scenario{
			named(base(sc), "Resilient RoCE", func(s *Scenario) { s.Transport = TransportRoCE; s.CC = CCDCQCN }),
			named(base(sc), "IRN", func(s *Scenario) { s.Transport = TransportIRN }),
		},
	}
}

// Figure11 compares the iWARP TCP stack against IRN, plus the §4.6
// IRN+AIMD variant.
func Figure11(sc Scale) Experiment {
	return Experiment{
		ID:          "fig11",
		Description: "iWARP (full TCP stack) vs IRN",
		Scenarios: []Scenario{
			named(base(sc), "iWARP (TCP)", func(s *Scenario) { s.Transport = TransportTCP }),
			named(base(sc), "IRN", func(s *Scenario) { s.Transport = TransportIRN }),
			named(base(sc), "IRN+AIMD", func(s *Scenario) { s.Transport = TransportIRN; s.CC = CCAIMD }),
		},
	}
}

// Figure12 measures IRN with the §6.3 worst-case implementation
// overheads: a 2 µs retransmission fetch delay and 16 extra header bytes
// on every packet.
func Figure12(sc Scale) Experiment {
	e := Experiment{ID: "fig12", Description: "IRN with worst-case implementation overheads"}
	for _, kind := range []CCKind{CCNone, CCTimely, CCDCQCN} {
		suffix := ""
		if kind != CCNone {
			suffix = "+" + kind.String()
		}
		e.Scenarios = append(e.Scenarios,
			named(base(sc), "RoCE"+suffix+" (with PFC)", func(s *Scenario) {
				s.Transport = TransportRoCE
				s.CC = kind
				s.PFC = true
			}),
			named(base(sc), "IRN"+suffix+" (no overheads)", func(s *Scenario) { s.CC = kind }),
			named(base(sc), "IRN"+suffix+" (worst-case overheads)", func(s *Scenario) {
				s.CC = kind
				s.RetxFetchDelay = 2 * sim.Microsecond
				s.ExtraHeader = 16
			}),
		)
	}
	return e
}

// irnTriple builds the appendix tables' three-way comparison (IRN,
// IRN+PFC, RoCE+PFC) for one CC kind with a scenario mutation applied.
func irnTriple(sc Scale, kind CCKind, label string, mut func(*Scenario)) []Scenario {
	suffix := ""
	if kind != CCNone {
		suffix = "+" + kind.String()
	}
	mk := func(name string, f func(*Scenario)) Scenario {
		s := base(sc)
		s.CC = kind
		mut(&s)
		return named(s, name, f)
	}
	return []Scenario{
		mk(fmt.Sprintf("IRN%s [%s]", suffix, label), func(s *Scenario) { s.Transport = TransportIRN }),
		mk(fmt.Sprintf("IRN%s+PFC [%s]", suffix, label), func(s *Scenario) { s.Transport = TransportIRN; s.PFC = true }),
		mk(fmt.Sprintf("RoCE%s+PFC [%s]", suffix, label), func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }),
	}
}

// sweep builds an appendix table: for each parameter value and CC kind,
// the IRN / IRN+PFC / RoCE+PFC triple.
func sweep(id, desc string, sc Scale, labels []string, muts []func(*Scenario)) Experiment {
	e := Experiment{ID: id, Description: desc, Kind: ReportRatios}
	for i := range labels {
		for _, kind := range []CCKind{CCNone, CCTimely, CCDCQCN} {
			e.Scenarios = append(e.Scenarios, irnTriple(sc, kind, labels[i], muts[i])...)
		}
	}
	return e
}

// TableA3 sweeps link utilization (30-90%).
func TableA3(sc Scale) Experiment {
	loads := []float64{0.3, 0.5, 0.7, 0.9}
	labels := make([]string, len(loads))
	muts := make([]func(*Scenario), len(loads))
	for i, l := range loads {
		l := l
		labels[i] = fmt.Sprintf("load=%.0f%%", l*100)
		muts[i] = func(s *Scenario) { s.Load = l }
	}
	return sweep("tableA3", "Robustness to link utilization (30-90%)", sc, labels, muts)
}

// TableA4 sweeps link bandwidth (10/40/100 Gbps).
func TableA4(sc Scale) Experiment {
	bws := []float64{10, 40, 100}
	labels := make([]string, len(bws))
	muts := make([]func(*Scenario), len(bws))
	for i, b := range bws {
		b := b
		labels[i] = fmt.Sprintf("bw=%.0fGbps", b)
		muts[i] = func(s *Scenario) { s.Gbps = b }
	}
	return sweep("tableA4", "Robustness to link bandwidth (10/40/100 Gbps)", sc, labels, muts)
}

// TableA5 sweeps fat-tree scale (54/128/250 hosts).
func TableA5(sc Scale) Experiment {
	arities := []int{6, 8, 10}
	labels := make([]string, len(arities))
	muts := make([]func(*Scenario), len(arities))
	for i, k := range arities {
		k := k
		labels[i] = fmt.Sprintf("k=%d (%d hosts)", k, k*k*k/4)
		muts[i] = func(s *Scenario) { s.Arity = k }
	}
	return sweep("tableA5", "Robustness to topology scale", sc, labels, muts)
}

// TableA6 compares the heavy-tailed and uniform workloads.
func TableA6(sc Scale) Experiment {
	return sweep("tableA6", "Robustness to workload pattern", sc,
		[]string{"heavy-tailed", "uniform 500KB-5MB"},
		[]func(*Scenario){
			func(s *Scenario) { s.Workload = WorkloadHeavyTailed },
			func(s *Scenario) { s.Workload = WorkloadUniform },
		})
}

// TableA7 sweeps per-port buffer size (60-480 KB).
func TableA7(sc Scale) Experiment {
	bufs := []int{60_000, 120_000, 240_000, 480_000}
	labels := make([]string, len(bufs))
	muts := make([]func(*Scenario), len(bufs))
	for i, b := range bufs {
		b := b
		labels[i] = fmt.Sprintf("buffer=%dKB", b/1000)
		muts[i] = func(s *Scenario) { s.BufferBytes = b }
	}
	return sweep("tableA7", "Robustness to per-port buffer size", sc, labels, muts)
}

// TableA8 sweeps RTOHigh (320/640/1280 µs).
func TableA8(sc Scale) Experiment {
	rtos := []sim.Duration{320 * sim.Microsecond, 640 * sim.Microsecond, 1280 * sim.Microsecond}
	labels := make([]string, len(rtos))
	muts := make([]func(*Scenario), len(rtos))
	for i, r := range rtos {
		r := r
		labels[i] = fmt.Sprintf("RTOhigh=%dus", int64(r/sim.Microsecond))
		muts[i] = func(s *Scenario) { s.RTOHigh = r }
	}
	return sweep("tableA8", "Robustness to RTOhigh over-estimation", sc, labels, muts)
}

// TableA9 sweeps N, the in-flight threshold for using RTOLow (3/10/15).
func TableA9(sc Scale) Experiment {
	ns := []int{3, 10, 15}
	labels := make([]string, len(ns))
	muts := make([]func(*Scenario), len(ns))
	for i, n := range ns {
		n := n
		labels[i] = fmt.Sprintf("N=%d", n)
		muts[i] = func(s *Scenario) { s.RTOLowN = n }
	}
	return sweep("tableA9", "Robustness to the RTOlow threshold N", sc, labels, muts)
}

// WindowCC is the §4.4.4 check: window-based congestion control (AIMD,
// DCTCP) on IRN, with and without PFC.
func WindowCC(sc Scale) Experiment {
	e := Experiment{ID: "windowcc", Description: "Window-based congestion control on IRN (§4.4.4)"}
	for _, kind := range []CCKind{CCAIMD, CCDCTCP} {
		e.Scenarios = append(e.Scenarios,
			named(base(sc), fmt.Sprintf("IRN+%s with PFC", kind), func(s *Scenario) {
				s.CC = kind
				s.PFC = true
			}),
			named(base(sc), fmt.Sprintf("IRN+%s (without PFC)", kind), func(s *Scenario) { s.CC = kind }),
		)
	}
	return e
}

// Ablations covers the §4.3 design-space exploration beyond Figure 7: go-back-N
// with loss backoff, selective retransmit without SACK state, dynamic
// timeouts, and BDP over-estimation (§3.2 footnote).
func Ablations(sc Scale) Experiment {
	return Experiment{
		ID:          "ablations",
		Description: "Design ablations (§4.3): GBN+backoff, no-SACK, dynamic RTO, BDP over-estimation",
		Scenarios: []Scenario{
			named(base(sc), "IRN", nil),
			named(base(sc), "GBN+backoff+Timely", func(s *Scenario) {
				s.CC = CCTimely
				s.Recovery = core.RecoveryGoBackN
				s.BackoffOnLoss = true
			}),
			named(base(sc), "GBN+Timely", func(s *Scenario) {
				s.CC = CCTimely
				s.Recovery = core.RecoveryGoBackN
			}),
			named(base(sc), "IRN+Timely", func(s *Scenario) { s.CC = CCTimely }),
			named(base(sc), "no-SACK", func(s *Scenario) { s.Recovery = core.RecoveryNoSACK }),
			named(base(sc), "dynamic RTO", func(s *Scenario) { s.DynamicRTO = true }),
			named(base(sc), "BDP cap x2", func(s *Scenario) { s.BDPCapScale = 2 }),
			named(base(sc), "BDP cap x4", func(s *Scenario) { s.BDPCapScale = 4 }),
		},
	}
}

// Reordering is the §7 study: per-packet spraying reorders flows; IRN's
// NACK threshold restores performance without a lossless fabric. The
// shared-buffer variant checks the §A.5 expectation that the basic
// results carry over to shared-buffer switches.
func Reordering(sc Scale) Experiment {
	return Experiment{
		ID:          "reorder",
		Description: "Packet spraying + NACK threshold (§7); shared-buffer switches (§A.5)",
		Scenarios: []Scenario{
			named(base(sc), "IRN ECMP", nil),
			named(base(sc), "IRN spray thresh=1", func(s *Scenario) { s.Spray = true }),
			named(base(sc), "IRN spray thresh=3", func(s *Scenario) { s.Spray = true; s.NackThreshold = 3 }),
			named(base(sc), "IRN spray thresh=5", func(s *Scenario) { s.Spray = true; s.NackThreshold = 5 }),
			named(base(sc), "IRN shared-buffer", func(s *Scenario) { s.SharedBuffer = true }),
			named(base(sc), "RoCE+PFC shared-buffer", func(s *Scenario) {
				s.Transport = TransportRoCE
				s.PFC = true
				s.SharedBuffer = true
			}),
		},
	}
}

// All returns every experiment in paper order.
func All(sc Scale) []Experiment {
	return []Experiment{
		Figure1(sc), Figure2(sc), Figure3(sc), Figure4(sc), Figure5(sc),
		Figure6(sc), Figure7(sc), Figure8(sc), Figure9(sc), Figure10(sc),
		Figure11(sc), Figure12(sc), FigureLoss(sc), FigureFlap(sc),
		FigureChaos(sc), FigureScale(sc), FigureDC(sc), FigureKV(sc),
		IncastCrossTraffic(sc), WindowCC(sc),
		TableA3(sc), TableA4(sc), TableA5(sc), TableA6(sc), TableA7(sc),
		TableA8(sc), TableA9(sc), Ablations(sc), Reordering(sc),
	}
}

// ByID returns one experiment by id, or false.
func ByID(id string, sc Scale) (Experiment, bool) {
	for _, e := range All(sc) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
