package irn

// This file regenerates every table and figure of the paper's evaluation
// as Go benchmarks. Each benchmark runs the corresponding experiment
// preset at bench scale (reduced flow counts so the full suite stays
// minutes, not hours — see internal/exp.BenchScale), logs the same
// rows/series the paper reports, and exposes the headline numbers as
// benchmark metrics. cmd/experiments runs the same presets at larger
// scale.
//
// Absolute numbers are not expected to match the paper (the substrate is
// a reimplemented simulator, not the authors' vendor simulator); the
// comparisons — who wins, by roughly what factor — are the reproduction
// target, and several are asserted as tests in internal/exp.

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/irnsim/irn/internal/cc"
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/hwmodel"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/tcpstack"
	"github.com/irnsim/irn/internal/transport"
)

// benchExperiment runs one experiment preset per benchmark iteration and
// reports the named result metrics. Scenarios shard across the fleet
// runner's GOMAXPROCS workers; results are bit-identical to a serial run.
func benchExperiment(b *testing.B, e exp.Experiment, report func(b *testing.B, rs []exp.Result)) {
	b.Helper()
	var results []exp.Result
	for i := 0; i < b.N; i++ {
		results = exp.RunFleet(e, exp.FleetConfig{}).First()
	}
	b.Log("\n" + exp.Render(e, results))
	if report != nil {
		report(b, results)
	}
}

// reportPair exposes a two-scenario comparison: absolute slowdowns and
// the B/A ratio (scenario order is preset-defined).
func reportPair(aLabel, bLabel string) func(*testing.B, []exp.Result) {
	return func(b *testing.B, rs []exp.Result) {
		if len(rs) < 2 {
			return
		}
		b.ReportMetric(rs[0].AvgSlowdown, aLabel+"_slowdown")
		b.ReportMetric(rs[1].AvgSlowdown, bLabel+"_slowdown")
		b.ReportMetric(metrics.Ratio(rs[0].AvgFCT.Millis(), rs[1].AvgFCT.Millis()), aLabel+"_over_"+bLabel+"_fct")
	}
}

func BenchmarkFig1IRNvsRoCE(b *testing.B) {
	benchExperiment(b, exp.Figure1(exp.BenchScale()), reportPair("roce_pfc", "irn"))
}

func BenchmarkFig2IRNPFC(b *testing.B) {
	benchExperiment(b, exp.Figure2(exp.BenchScale()), reportPair("irn_pfc", "irn"))
}

func BenchmarkFig3RoCEPFC(b *testing.B) {
	benchExperiment(b, exp.Figure3(exp.BenchScale()), reportPair("roce_pfc", "roce_nopfc"))
}

func BenchmarkFig4WithCC(b *testing.B) {
	benchExperiment(b, exp.Figure4(exp.BenchScale()), func(b *testing.B, rs []exp.Result) {
		if len(rs) == 4 {
			b.ReportMetric(metrics.Ratio(rs[0].AvgFCT.Millis(), rs[1].AvgFCT.Millis()), "timely_roce_over_irn_fct")
			b.ReportMetric(metrics.Ratio(rs[2].AvgFCT.Millis(), rs[3].AvgFCT.Millis()), "dcqcn_roce_over_irn_fct")
		}
	})
}

func BenchmarkFig5IRNPFCWithCC(b *testing.B) {
	benchExperiment(b, exp.Figure5(exp.BenchScale()), func(b *testing.B, rs []exp.Result) {
		if len(rs) == 4 {
			b.ReportMetric(metrics.Ratio(rs[1].AvgFCT.Millis(), rs[0].AvgFCT.Millis()), "timely_nopfc_over_pfc_fct")
			b.ReportMetric(metrics.Ratio(rs[3].AvgFCT.Millis(), rs[2].AvgFCT.Millis()), "dcqcn_nopfc_over_pfc_fct")
		}
	})
}

func BenchmarkFig6RoCEPFCWithCC(b *testing.B) {
	benchExperiment(b, exp.Figure6(exp.BenchScale()), func(b *testing.B, rs []exp.Result) {
		if len(rs) == 4 {
			b.ReportMetric(metrics.Ratio(rs[1].AvgFCT.Millis(), rs[0].AvgFCT.Millis()), "timely_nopfc_over_pfc_fct")
			// RoCE+DCQCN without PFC is Resilient RoCE.
			b.ReportMetric(metrics.Ratio(rs[3].AvgFCT.Millis(), rs[2].AvgFCT.Millis()), "dcqcn_nopfc_over_pfc_fct")
		}
	})
}

func BenchmarkFig7FactorAnalysis(b *testing.B) {
	benchExperiment(b, exp.Figure7(exp.BenchScale()), func(b *testing.B, rs []exp.Result) {
		if len(rs) >= 3 {
			b.ReportMetric(rs[0].AvgFCT.Millis(), "irn_fct_ms")
			b.ReportMetric(rs[1].AvgFCT.Millis(), "gbn_fct_ms")
			b.ReportMetric(rs[2].AvgFCT.Millis(), "nobdpfc_fct_ms")
		}
	})
}

func BenchmarkFig8TailCDF(b *testing.B) {
	benchExperiment(b, exp.Figure8(exp.BenchScale()), func(b *testing.B, rs []exp.Result) {
		// Report the no-CC p99.9 single-packet latencies (first triple).
		for i, label := range []string{"roce_pfc", "irn_pfc", "irn"} {
			if i < len(rs) && len(rs[i].SinglePktCDF) == 4 {
				b.ReportMetric(rs[i].SinglePktCDF[3].Latency.Millis(), label+"_p999_ms")
			}
		}
	})
}

func BenchmarkFig9Incast(b *testing.B) {
	benchExperiment(b, exp.Figure9(exp.BenchScale()), func(b *testing.B, rs []exp.Result) {
		// Average RCT ratio across fan-ins (pairs are RoCE, IRN).
		sum, n := 0.0, 0
		for i := 0; i+1 < len(rs); i += 2 {
			if rs[i].RCT > 0 {
				sum += float64(rs[i+1].RCT) / float64(rs[i].RCT)
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "mean_rct_ratio_irn_over_roce")
		}
	})
}

func BenchmarkFig10ResilientRoCE(b *testing.B) {
	benchExperiment(b, exp.Figure10(exp.BenchScale()), reportPair("resilient_roce", "irn"))
}

func BenchmarkFig11IWARP(b *testing.B) {
	benchExperiment(b, exp.Figure11(exp.BenchScale()), func(b *testing.B, rs []exp.Result) {
		if len(rs) == 3 {
			b.ReportMetric(rs[0].AvgSlowdown, "iwarp_slowdown")
			b.ReportMetric(rs[1].AvgSlowdown, "irn_slowdown")
			b.ReportMetric(rs[2].AvgSlowdown, "irn_aimd_slowdown")
		}
	})
}

func BenchmarkFig12Overheads(b *testing.B) {
	benchExperiment(b, exp.Figure12(exp.BenchScale()), func(b *testing.B, rs []exp.Result) {
		if len(rs) >= 3 {
			b.ReportMetric(metrics.Ratio(rs[2].AvgFCT.Millis(), rs[1].AvgFCT.Millis()), "overhead_fct_ratio")
			b.ReportMetric(metrics.Ratio(rs[2].AvgFCT.Millis(), rs[0].AvgFCT.Millis()), "irn_worst_over_roce_fct")
		}
	})
}

// BenchmarkFigScale is the scale-up run (k=10 fat-tree, 250 hosts) the
// timing-wheel scheduler makes practical; its bench-scale flow count is
// reduced proportionally (see exp.FigureScale).
func BenchmarkFigScale(b *testing.B) {
	benchExperiment(b, exp.FigureScale(exp.BenchScale()), reportPair("roce_pfc", "irn"))
}

// BenchmarkFigScaleShards is BenchmarkFigScale with each run sharded
// across up to four cores by the conservative-parallel engine. Results
// are bit-identical to the serial preset; the ns/op ratio between the two
// benchmarks is the intra-run speedup (bounded by GOMAXPROCS — on a
// single-core box the two coincide modulo barrier overhead).
func BenchmarkFigScaleShards(b *testing.B) {
	e := exp.FigureScale(exp.BenchScale())
	for i := range e.Scenarios {
		e.Scenarios[i].Shards = 4
	}
	benchExperiment(b, e, reportPair("roce_pfc", "irn"))
}

// BenchmarkFigDC is the datacenter-scale preset (k=16 fat-tree, 1024
// hosts, empirical Hadoop workload) the streaming collectors make
// practical; the bench-scale run keeps its reduced flow count. Its
// bytes/op is the interesting series: metric collection is O(shards),
// so allocation regressions here flag per-flow state creeping back in.
func BenchmarkFigDC(b *testing.B) {
	benchExperiment(b, exp.FigureDC(exp.BenchScale()), reportPair("roce_pfc", "irn"))
}

// BenchmarkFigDCShards is BenchmarkFigDC sharded across up to four
// cores — the k=16 intra-run scaling sample. FigDC ÷ FigDCShards ns/op
// is the intra-run speedup; CI's bench-multicore job uploads both rows
// (on a box with fewer than 4 cores the ratio sits near or below 1.0).
func BenchmarkFigDCShards(b *testing.B) {
	e := exp.FigureDC(exp.BenchScale())
	for i := range e.Scenarios {
		e.Scenarios[i].Shards = 4
	}
	benchExperiment(b, e, reportPair("roce_pfc", "irn"))
}

// reportKV exposes the figkv headline: mean availability per transport
// across the three chaos schedules (scenarios are RoCE/IRN pairs) and the
// flap-storm commit-p99 ratio.
func reportKV(b *testing.B, rs []exp.Result) {
	var roceA, irnA float64
	pairs := 0
	for i := 0; i+1 < len(rs); i += 2 {
		if rs[i].KV == nil || rs[i+1].KV == nil {
			continue
		}
		roceA += rs[i].KV.Availability
		irnA += rs[i+1].KV.Availability
		pairs++
	}
	if pairs > 0 {
		b.ReportMetric(roceA/float64(pairs), "roce_pfc_availability")
		b.ReportMetric(irnA/float64(pairs), "irn_availability")
	}
	if len(rs) >= 2 && rs[0].KV != nil && rs[1].KV != nil {
		b.ReportMetric(metrics.Ratio(rs[0].KV.CommitP99.Millis(), rs[1].KV.CommitP99.Millis()),
			"flap_commit_p99_roce_over_irn")
	}
}

// BenchmarkFigKV runs the replicated-KV chaos preset (leader flap storm,
// rolling drain, pod blackout; IRN vs RoCE+PFC), serial like every KV run.
func BenchmarkFigKV(b *testing.B) {
	benchExperiment(b, exp.FigureKV(exp.BenchScale()), reportKV)
}

func BenchmarkIncastCrossTraffic(b *testing.B) {
	benchExperiment(b, exp.IncastCrossTraffic(exp.BenchScale()), func(b *testing.B, rs []exp.Result) {
		if len(rs) >= 2 && rs[0].RCT > 0 {
			b.ReportMetric(float64(rs[1].RCT)/float64(rs[0].RCT), "rct_ratio_irn_over_roce")
			b.ReportMetric(metrics.Ratio(rs[0].AvgSlowdown, rs[1].AvgSlowdown), "bg_slowdown_roce_over_irn")
		}
	})
}

func BenchmarkWindowCC(b *testing.B) {
	benchExperiment(b, exp.WindowCC(exp.BenchScale()), nil)
}

// tableScale shrinks the appendix sweeps so the full bench suite stays
// tractable; cmd/experiments runs them bigger.
func tableScale() exp.Scale {
	s := exp.BenchScale()
	s.Flows = 500
	return s
}

func BenchmarkTableA3LoadSweep(b *testing.B) { benchExperiment(b, exp.TableA3(tableScale()), nil) }
func BenchmarkTableA4Bandwidth(b *testing.B) { benchExperiment(b, exp.TableA4(tableScale()), nil) }
func BenchmarkTableA5Scale(b *testing.B)     { benchExperiment(b, exp.TableA5(tableScale()), nil) }
func BenchmarkTableA6Workload(b *testing.B)  { benchExperiment(b, exp.TableA6(tableScale()), nil) }
func BenchmarkTableA7Buffer(b *testing.B)    { benchExperiment(b, exp.TableA7(tableScale()), nil) }
func BenchmarkTableA8RTO(b *testing.B)       { benchExperiment(b, exp.TableA8(tableScale()), nil) }
func BenchmarkTableA9N(b *testing.B)         { benchExperiment(b, exp.TableA9(tableScale()), nil) }
func BenchmarkAblations(b *testing.B)        { benchExperiment(b, exp.Ablations(tableScale()), nil) }

// BenchmarkTable1MessageRate is the Table 1 analogue: per-message datapath
// cost of the iWARP TCP stack versus the RoCE/IRN-style datapath. The
// paper measured raw hardware (iWARP 3.24 Mpps / RoCE 14.7 Mpps on 64 B
// writes); here the comparable, reproducible quantity is the software
// instruction cost of each transport's per-message state machine. The
// shape to preserve: the TCP stack costs many times more per message. On
// a shared 2-core x86-64 box (Go 1.24, -count 5) iwarp-tcp reads
// 0.68–0.81 µs/op with 2 allocations, the message's data packet and its
// ACK, and irn 47–56 ns/op with none: about fifteen times less.
func BenchmarkTable1MessageRate(b *testing.B) {
	b.Run("iwarp-tcp", func(b *testing.B) {
		// One sender and one NewReno window, re-Init-ed per message as the
		// experiment launcher recycles them, so set-up the simulator never
		// pays per message stays out of the figure.
		ep := &nullEndpoint{}
		p := tcpstack.DefaultParams(64)
		var s core.Sender
		var reno cc.NewReno
		var fl transport.Flow
		for i := 0; i < b.N; i++ {
			fl = transport.Flow{ID: 1, Src: 0, Dst: 1, Size: 64, Pkts: 1}
			reno.Init()
			s.Init(ep, &fl, p, &reno, nil)
			pkt := s.NextPacket(0)
			ack := ackFor(pkt)
			s.HandleControl(ack, 1000)
			if !s.Done() {
				b.Fatal("message incomplete")
			}
			// Each message leaves its retransmission timer's two events
			// queued. Running them out every 1024 messages lets them lapse
			// as they do in a run, and keeps the queue from growing with
			// b.N.
			if i%1024 == 1023 {
				ep.Engine().Run()
			}
		}
		reportMpps(b)
	})
	b.Run("irn", func(b *testing.B) {
		// The IRN datapath per 64 B message: receiveData + receiveAck on
		// the hardware model (the paper's point: IRN keeps RoCE's slim
		// per-message path; its message rate matches current RoCE NICs).
		snd := &hwmodel.QPContext{}
		rcv := &hwmodel.QPContext{}
		for i := 0; i < b.N; i++ {
			out := hwmodel.TxFree(snd, ^uint32(0), 0)
			r := hwmodel.ReceiveData(rcv, out.PSN, true)
			hwmodel.ReceiveAck(snd, r.AckPSN, false, 0)
		}
		reportMpps(b)
	})
}

// BenchmarkTable2Modules regenerates Table 2: per-module packet
// processing cost of the four IRN modules (ns/op; Mpps derived). The
// hardware numbers (45-318 Mpps) came from FPGA synthesis; the
// reproducible shape is that all modules sustain NIC-scale packet rates
// and that timeout is an order of magnitude cheaper than the bitmap
// modules.
func BenchmarkTable2Modules(b *testing.B) {
	b.Run("receiveData", func(b *testing.B) {
		ctx := &hwmodel.QPContext{}
		for i := 0; i < b.N; i++ {
			psn := ctx.Expected
			if i%7 == 3 {
				psn += 2
			}
			hwmodel.ReceiveData(ctx, psn, i%4 == 0)
		}
		reportMpps(b)
	})
	b.Run("txFree", func(b *testing.B) {
		ctx := &hwmodel.QPContext{}
		for i := 0; i < b.N; i++ {
			out := hwmodel.TxFree(ctx, ^uint32(0), hwmodel.Bits)
			if out.HasPacket && i%2 == 0 {
				hwmodel.ReceiveAck(ctx, out.PSN+1, false, 0)
			}
		}
		reportMpps(b)
	})
	b.Run("receiveAck", func(b *testing.B) {
		ctx := &hwmodel.QPContext{NextSeq: 1 << 30}
		cum := uint32(0)
		for i := 0; i < b.N; i++ {
			cum++
			hwmodel.ReceiveAck(ctx, cum, i%16 == 7, cum+3)
		}
		reportMpps(b)
	})
	b.Run("timeout", func(b *testing.B) {
		ctx := &hwmodel.QPContext{RTOLowArm: true, RTOLowN: 3, InFlight: 10, NextSeq: 10}
		for i := 0; i < b.N; i++ {
			ctx.RTOLowArm = true
			hwmodel.Timeout(ctx)
		}
		reportMpps(b)
	})
}

// BenchmarkFleetParallelism measures fleet-runner scaling: the Figure 1
// sweep on one worker versus all of them. The speedup bounds how much
// faster the whole suite runs on a given machine.
func BenchmarkFleetParallelism(b *testing.B) {
	e := exp.Figure1(exp.BenchScale())
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, par := range widths {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exp.RunFleet(e, exp.FleetConfig{Parallel: par})
			}
		})
	}
}

// reportMpps converts the benchmark's ns/op into millions of packets (or
// messages) per second, Table 1/2's throughput unit.
func reportMpps(b *testing.B) {
	b.StopTimer()
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if nsPerOp > 0 {
		b.ReportMetric(1e3/nsPerOp, "Mpps")
	}
}

// nullEndpoint satisfies transport.Endpoint for datapath microbenchmarks.
type nullEndpoint struct{ eng *sim.Engine }

func (e *nullEndpoint) Now() sim.Time     { return 0 }
func (e *nullEndpoint) Clock() *sim.Clock { return nil }
func (e *nullEndpoint) Engine() *sim.Engine {
	if e.eng == nil {
		e.eng = sim.NewEngine()
	}
	return e.eng
}
func (e *nullEndpoint) SendControl(*packet.Packet) {}
func (e *nullEndpoint) Pool() *packet.Pool         { return nil }
func (e *nullEndpoint) Wake()                      {}

// ackFor builds the cumulative ACK completing pkt.
func ackFor(pkt *packet.Packet) *packet.Packet {
	ack := packet.NewAck(pkt.Flow, pkt.Dst, pkt.Src, pkt.PSN+1)
	ack.SentAt = 1
	return ack
}
