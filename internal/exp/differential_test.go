package exp

import (
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/irnsim/irn/internal/metrics"
)

// diffScale keeps the sketch-vs-exact sweep fast: every fig* preset runs
// once per scenario with a small flow population — enough completions
// for the quantile comparison to be meaningful, small enough that the
// whole sweep stays in seconds.
func diffScale() Scale {
	return Scale{Flows: 24, IncastBytes: 200_000, IncastReps: 1}
}

// TestSketchMatchesExact is the differential harness: every fig* preset
// runs with dual-mode collection (streaming sketches and the historical
// record-retaining reference side by side) and every streaming statistic
// must land within its documented tolerance of the exact computation —
// means to float tolerance, quantiles within metrics.QuantileEpsilon.
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
				res := NewWorker().run(s, runOpts{exact: true})
				ex := res.ExactCollector
				if ex == nil || !ex.Exact() {
					t.Fatal("exact run must carry the exact collector")
				}
				if ex.Count() != res.Summary.Flows {
					t.Fatalf("collector count %d != summary flows %d", ex.Count(), res.Summary.Flows)
				}
				if res.Summary.Flows == 0 {
					return
				}
				// Means: the streaming integer accumulators against the
				// float-sum / sort-free references.
				if got, want := ex.AvgFCT(), ex.ExactAvgFCT(); got != want {
					t.Errorf("avg fct: streaming %v != exact %v", got, want)
				}
				if re := relErr(ex.AvgSlowdown(), ex.ExactAvgSlowdown()); re > 1e-6 {
					t.Errorf("avg slowdown: streaming %v vs exact %v (rel err %v)",
						ex.AvgSlowdown(), ex.ExactAvgSlowdown(), re)
				}
				// Quantiles: within the documented ε at every headline
				// percentile.
				for _, p := range []float64{50, 90, 99, 99.9} {
					got := float64(ex.PercentileFCT(p))
					want := float64(ex.ExactPercentileFCT(p))
					if relErr(got, want) > metrics.QuantileEpsilon {
						t.Errorf("p%v fct: streaming %v vs exact %v (rel err %v)",
							p, got, want, relErr(got, want))
					}
				}
				// The Figure 8 single-packet tail series, point for point.
				sp := ex.SinglePacketTail([]float64{90, 95, 99, 99.9})
				ref := ex.ExactSinglePacketTail([]float64{90, 95, 99, 99.9})
				if len(sp) != len(ref) {
					t.Fatalf("single-packet series length %d vs %d", len(sp), len(ref))
				}
				for i := range sp {
					if relErr(float64(sp[i].Latency), float64(ref[i].Latency)) > metrics.QuantileEpsilon {
						t.Errorf("single-packet p%v: streaming %v vs exact %v",
							sp[i].Percentile, sp[i].Latency, ref[i].Latency)
					}
				}
				// The Result surface is wired from the same collector.
				if res.Summary != ex.Summarize() {
					t.Errorf("result summary %+v != collector summary %+v", res.Summary, ex.Summarize())
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
// run's collector footprint must be a constant in the flow count —
// O(shards) sketches, no per-flow retention. Doubling the flows must not
// move MetricsBytes at all, and the absolute footprint must stay under a
// hard byte budget.
func TestFigDCCollectorMemoryBounded(t *testing.T) {
	run := func(flows int) Result {
		e, _ := ByID("figdc", Scale{Flows: flows, IncastBytes: 1, IncastReps: 1})
		return Run(e.Scenarios[1]) // IRN side
	}
	a := run(100)
	b := run(200)
	if a.Summary.Flows != 100 || b.Summary.Flows != 200 {
		t.Fatalf("runs completed %d and %d flows", a.Summary.Flows, b.Summary.Flows)
	}
	if a.MetricsBytes != b.MetricsBytes {
		t.Errorf("collector footprint moved with flow count: %d -> %d bytes", a.MetricsBytes, b.MetricsBytes)
	}
	const budget = 200 << 10
	if a.MetricsBytes <= 0 || a.MetricsBytes > budget {
		t.Errorf("MetricsBytes = %d, want (0, %d]", a.MetricsBytes, budget)
	}
	// Exact mode is the deliberate exception: it retains records.
	e, _ := ByID("figdc", Scale{Flows: 200, IncastBytes: 1, IncastReps: 1})
	if ex := NewWorker().run(e.Scenarios[1], runOpts{exact: true}); ex.MetricsBytes <= b.MetricsBytes {
		t.Errorf("exact mode footprint %d should exceed streaming %d", ex.MetricsBytes, b.MetricsBytes)
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
	res := Run(s)
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.Logf("figdc full scale: %s events=%d heap_delta=%dKB metrics_bytes=%d",
		res.Summary, res.Events, (int64(after.HeapAlloc)-int64(before.HeapAlloc))>>10, res.MetricsBytes)
	if res.Summary.Flows+res.Summary.Incomplete != 100_000 {
		t.Fatalf("accounted flows = %d, want 100000", res.Summary.Flows+res.Summary.Incomplete)
	}
	if res.MetricsBytes > 200<<10 {
		t.Errorf("collector footprint %d bytes at 100k flows, budget 200KB", res.MetricsBytes)
	}
}
