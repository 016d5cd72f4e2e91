package exp

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/sim"
)

// diffScale keeps the sketch-vs-exact sweep fast: every fig* preset runs
// once per scenario with a small flow population — enough completions
// for the quantile comparison to be meaningful, small enough that the
// whole sweep stays in seconds.
func diffScale() Scale {
	return Scale{Flows: 24, IncastBytes: 200_000, IncastReps: 1}
}

// TestSketchMatchesExact is the differential harness: every fig* preset
// runs once, and every streaming statistic of its merged collector must
// land within its documented tolerance of the exact statistic computed
// from the run's flow table — the FCT (Finish − Start) of each finished
// flow, sorted, and its slowdown against the fabric's ideal FCT. Means
// agree to float tolerance, quantiles within metrics.QuantileEpsilon.
func TestSketchMatchesExact(t *testing.T) {
	relErr := func(got, want float64) float64 {
		if want == 0 {
			return math.Abs(got)
		}
		return math.Abs(got-want) / math.Abs(want)
	}
	ran := 0
	for _, e := range All(diffScale()) {
		if !strings.HasPrefix(e.ID, "fig") {
			continue
		}
		for _, s := range e.Scenarios {
			s := s
			t.Run(e.ID+"/"+s.Name, func(t *testing.T) {
				ran++
				w := NewWorker()
				res, col, flows := w.run(s, runOpts{})
				var fcts, onePkt []int64
				var fctSum int64
				slowSum := 0.0
				unfinished := 0
				for _, fl := range flows {
					if !fl.Finished {
						unfinished++
						continue
					}
					fct := fl.Finish.Sub(fl.Start)
					fcts = append(fcts, int64(fct))
					fctSum += int64(fct)
					if ideal := w.net.IdealFCT(fl.Src, fl.Dst, fl.Size); ideal > 0 {
						slowSum += float64(fct) / float64(ideal)
					}
					if fl.Pkts == 1 {
						onePkt = append(onePkt, int64(fct))
					}
				}
				if len(fcts) != res.Summary.Flows || unfinished != res.Summary.Incomplete {
					t.Fatalf("flow table has %d finished and %d unfinished flows, summary %d and %d",
						len(fcts), unfinished, res.Summary.Flows, res.Summary.Incomplete)
				}
				if col.Count() != res.Summary.Flows {
					t.Fatalf("collector count %d != summary flows %d", col.Count(), res.Summary.Flows)
				}
				if res.Summary.Flows == 0 {
					return
				}
				slices.Sort(fcts)
				slices.Sort(onePkt)
				// Means: the streaming integer accumulators against the
				// table's integer FCT sum and float slowdown sum.
				if got, want := col.AvgFCT(), sim.Duration(fctSum/int64(len(fcts))); got != want {
					t.Errorf("avg fct: streaming %v != exact %v", got, want)
				}
				exactSlow := slowSum / float64(len(fcts))
				if re := relErr(col.AvgSlowdown(), exactSlow); re > 1e-6 {
					t.Errorf("avg slowdown: streaming %v vs exact %v (rel err %v)",
						col.AvgSlowdown(), exactSlow, re)
				}
				// Quantiles: within the documented ε at every headline
				// percentile.
				for _, p := range []float64{50, 90, 99, 99.9} {
					got := float64(col.PercentileFCT(p))
					want := float64(metrics.NearestRank(fcts, p))
					if relErr(got, want) > metrics.QuantileEpsilon {
						t.Errorf("p%v fct: streaming %v vs exact %v (rel err %v)",
							p, got, want, relErr(got, want))
					}
				}
				// The Figure 8 single-packet tail series, point for point.
				sp := col.SinglePacketTail([]float64{90, 95, 99, 99.9})
				if len(onePkt) == 0 {
					if sp != nil {
						t.Fatalf("single-packet series %v with no single-packet flow", sp)
					}
				} else if len(sp) != 4 {
					t.Fatalf("single-packet series length %d, want 4", len(sp))
				}
				for _, pt := range sp {
					want := float64(metrics.NearestRank(onePkt, pt.Percentile))
					if relErr(float64(pt.Latency), want) > metrics.QuantileEpsilon {
						t.Errorf("single-packet p%v: streaming %v vs exact %v",
							pt.Percentile, pt.Latency, want)
					}
				}
				// The Result surface is wired from the same collector.
				if res.Summary != col.Summarize() {
					t.Errorf("result summary %+v != collector summary %+v", res.Summary, col.Summarize())
				}
				if res.FCTSketch.N() != uint64(res.Summary.Flows) {
					t.Errorf("sketch n %d != flows %d", res.FCTSketch.N(), res.Summary.Flows)
				}
			})
		}
	}
	if ran < 14 {
		t.Fatalf("differential sweep covered only %d scenarios", ran)
	}
}

// TestFigDCPreset pins the datacenter preset's shape: k=16 (1024 hosts),
// the empirical Hadoop workload at 60% load, and one flow-count rule at
// every scale — the scale's flows, floored at 64.
func TestFigDCPreset(t *testing.T) {
	e, ok := ByID("figdc", DefaultScale())
	if !ok {
		t.Fatal("figdc not registered")
	}
	if len(e.Scenarios) != 2 {
		t.Fatalf("want RoCE+PFC vs IRN pair, got %d scenarios", len(e.Scenarios))
	}
	for _, s := range e.Scenarios {
		if s.Arity != 16 {
			t.Errorf("%s: arity %d, want 16", s.Name, s.Arity)
		}
		if s.Workload != WorkloadHadoop {
			t.Errorf("%s: workload %d, want hadoop", s.Name, s.Workload)
		}
		if s.Load != 0.6 {
			t.Errorf("%s: load %v, want 0.6", s.Name, s.Load)
		}
	}
	for _, c := range []struct{ flows, want int }{{4000, 4000}, {3999, 3999}, {40, 64}} {
		e, _ := ByID("figdc", Scale{Flows: c.flows, IncastBytes: 1, IncastReps: 1})
		for _, s := range e.Scenarios {
			if s.NumFlows != c.want {
				t.Errorf("%s at -flows %d runs %d flows, want %d", s.Name, c.flows, s.NumFlows, c.want)
			}
		}
	}
}

// TestFigDCCollectorMemoryBounded is the memory-regression guard: the
// run's merged collector footprint must be a constant in the flow count —
// O(1) sketches, no per-flow retention. Doubling the flows must not move
// MemFootprint at all, and the absolute footprint must stay under a hard
// byte budget.
func TestFigDCCollectorMemoryBounded(t *testing.T) {
	run := func(flows int) (Result, int) {
		e, _ := ByID("figdc", Scale{Flows: flows, IncastBytes: 1, IncastReps: 1})
		res, col, _ := NewWorker().run(e.Scenarios[1], runOpts{}) // IRN side
		return res, col.MemFootprint()
	}
	a, fa := run(100)
	b, fb := run(200)
	if a.Summary.Flows != 100 || b.Summary.Flows != 200 {
		t.Fatalf("runs completed %d and %d flows", a.Summary.Flows, b.Summary.Flows)
	}
	if fa != fb {
		t.Errorf("collector footprint moved with flow count: %d -> %d bytes", fa, fb)
	}
	const budget = 200 << 10
	if fa <= 0 || fa > budget {
		t.Errorf("MemFootprint = %d, want (0, %d]", fa, budget)
	}
}

// TestFigDCFullScale runs the headline 10⁵-flow datacenter scenario end
// to end — minutes of wall clock, so it is opt-in via IRNSIM_FIGDC_FULL=1
// (the CI smoke job runs a reduced-flow variant instead).
func TestFigDCFullScale(t *testing.T) {
	if os.Getenv("IRNSIM_FIGDC_FULL") == "" {
		t.Skip("set IRNSIM_FIGDC_FULL=1 to run the full 100k-flow scenario")
	}
	e, _ := ByID("figdc", Scale{Flows: 100_000})
	s := e.Scenarios[1] // IRN side
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, col, _ := NewWorker().run(s, runOpts{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.Logf("figdc full scale: %s events=%d heap_delta=%dKB collector_bytes=%d",
		res.Summary, res.Events, (int64(after.HeapAlloc)-int64(before.HeapAlloc))>>10, col.MemFootprint())
	if res.Summary.Flows+res.Summary.Incomplete != 100_000 {
		t.Fatalf("accounted flows = %d, want 100000", res.Summary.Flows+res.Summary.Incomplete)
	}
	if fp := col.MemFootprint(); fp > 200<<10 {
		t.Errorf("collector footprint %d bytes at 100k flows, budget 200KB", fp)
	}
}
