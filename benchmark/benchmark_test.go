package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"github.com/irnsim/irn/internal/exp"
)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json at the repository
// root to the tables this program measures by.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command = %v, want %v", doc.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths = %v, want %v", doc.Paths, want)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, want {%s %s}", i, got, w.Name, w.Why)
		}
	}
	if len(doc.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if got := doc.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d = %+v, want %+v", i, got, m)
		}
	}
	layers := perLayerMetrics()
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics, want %d", len(doc.PerLayer), len(layers))
	}
	for i, m := range layers {
		if got := doc.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d = %+v, want %+v", i, got, m)
		}
	}
}

// TestReferenceSizes: at seed 1 every workload runs the operation count its
// Size line states; at another seed the flow workloads offer the same
// packets from a different count.
func TestReferenceSizes(t *testing.T) {
	want := map[string]int{"dc_irn": 3000, "dc_roce_pfc": 5000, "k6_irn_lossy": 8000, "kv_chaos": 100000}
	for _, w := range workloads {
		if got := w.Ops(1); got != want[w.Name] {
			t.Errorf("%s: %d operations at seed 1, want %d", w.Name, got, want[w.Name])
		}
		if got := w.Ops(2); !w.KV && (got == want[w.Name] || got < want[w.Name]*8/10 || got > want[w.Name]*12/10) {
			t.Errorf("%s: %d operations at seed 2, want near but not equal to %d", w.Name, got, want[w.Name])
		}
	}
}

// TestProbeFidelity: for IRN, RoCE+PFC and a congestion-controlled run the
// decorated probe wiring delivers the same data-packet and completed-flow
// counts as exp.Worker.Run on the same scenario and seed, events within
// 0.1%, and removing the decorators does not change its own digest.
func TestProbeFidelity(t *testing.T) {
	for _, s := range []exp.Scenario{
		{Name: "irn", NumFlows: 400, Seed: 3},
		{Name: "roce+pfc", NumFlows: 400, Transport: exp.TransportRoCE, PFC: true, Seed: 3},
		{Name: "irn+dcqcn", NumFlows: 300, CC: exp.CCDCQCN, Seed: 5},
		{Name: "roce+timely", NumFlows: 300, Transport: exp.TransportRoCE, CC: exp.CCTimely, Workload: exp.WorkloadHadoop, Load: 0.5, Seed: 5},
		kvChaos(7, 1500),
	} {
		t.Run(s.Name, func(t *testing.T) {
			want := simOutOf(exp.Run(s))
			tr := newTracer()
			p, _, _, err := newProbe(s, tr)
			if err != nil {
				t.Fatal(err)
			}
			traced, _, err := p.run(s, true, "")
			if err != nil {
				t.Fatal(err)
			}
			bare, _, err := p.run(s, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if traced.digest() != bare.digest() {
				t.Errorf("decorators changed the probe's digest: %s traced, %s bare", traced.digest(), bare.digest())
			}
			if traced.Net.Delivered != want.Net.Delivered {
				t.Errorf("probe delivered %d data packets, exp %d", traced.Net.Delivered, want.Net.Delivered)
			}
			if traced.completed() != want.completed() || traced.failed() != want.failed() {
				t.Errorf("probe completed %d / failed %d operations, exp %d / %d", traced.completed(), traced.failed(), want.completed(), want.failed())
			}
			if d := math.Abs(float64(traced.Events) - float64(want.Events)); d > 0.001*float64(want.Events) {
				t.Errorf("probe executed %d events, exp %d", traced.Events, want.Events)
			}
			if traced.digest() != want.digest() {
				t.Logf("note: probe digest %s differs from exp's %s (counts agree)", traced.digest(), want.digest())
			}
			if s.KV.Requests == 0 && tr.calls[bHandleData] != traced.Net.Delivered {
				t.Errorf("handle_data span count %d != data packets delivered %d", tr.calls[bHandleData], traced.Net.Delivered)
			}
			if s.CC != exp.CCNone && tr.calls[bCC] == 0 {
				t.Error("congestion-controlled run recorded no cc spans")
			}
		})
	}
}

// TestProbeRejectsUnwiredScenario: a scenario field the probe launcher does
// not wire is an error, not a silently different simulation.
func TestProbeRejectsUnwiredScenario(t *testing.T) {
	for _, s := range []exp.Scenario{{Spray: true}, {Transport: exp.TransportTCP}, {IncastM: 8}, {Shards: 2}} {
		if _, _, _, err := newProbe(s, newTracer()); err == nil {
			t.Errorf("probe accepted %+v", s)
		}
	}
}

// TestQuickWorkloads runs every workload's measuring body and traced run at
// -quick size: no output check may fire, no operation may fail, and the
// traced run must report every declared metric with shares that sum to one.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			ref := measure(w, 1, quickDivisor, 1)
			if len(ref.Violations) > 0 {
				t.Fatalf("violations: %v", ref.Violations)
			}
			if ref.Failed != 0 {
				t.Errorf("%d operations failed", ref.Failed)
			}
			again := measure(w, 1, quickDivisor, 1)
			if again.Digest != ref.Digest || again.Mallocs != ref.Mallocs && math.Abs(float64(again.Mallocs)-float64(ref.Mallocs)) > 0.02*float64(ref.Mallocs) {
				t.Errorf("repeat run differs: digest %s vs %s, mallocs %d vs %d", again.Digest, ref.Digest, again.Mallocs, ref.Mallocs)
			}
			tr, err := traceRun(w, ref, quickDivisor, 100, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Violations) > 0 {
				t.Errorf("traced run violations: %v", tr.Violations)
			}
			if !tr.DigestMatch {
				t.Logf("note: probe launcher did not reproduce sim_digest %s (counts agree)", ref.Digest)
			}
			vals, err := withUnits(traceMetrics, tr.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			sum := vals["share.transport"].Value + vals["share.cc"].Value + vals["share.metrics"].Value + vals["share.fabric_sim"].Value
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("shares sum to %v", sum)
			}
			if !w.KV && vals["share.transport"].Value <= 0 {
				t.Error("flow workload recorded no transport time")
			}
			if tr.Spans < 5 {
				t.Errorf("only %d spans recorded", tr.Spans)
			}
		})
	}
}

// TestLedgerCoversTable: every declared ledger metric is measured, positive,
// and nothing undeclared is.
func TestLedgerCoversTable(t *testing.T) {
	got := runLedger(400)
	for _, m := range ledgerMetrics {
		if v, ok := got[m.Name]; !ok || !(v > 0) {
			t.Errorf("%s = %v (measured: %v)", m.Name, v, ok)
		}
		delete(got, m.Name)
	}
	for name := range got {
		t.Errorf("ledger measured undeclared metric %s", name)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 2, 3, 4, 5, 6, 7, 8, 9, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 4}, 1, 4},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareStat(t *testing.T) {
	lower := func(vals ...float64) stat { return newStat("s", "lower", 0.10, vals) }
	higher := func(vals ...float64) stat { return newStat("1/s", "higher", 0.10, vals) }
	for _, c := range []struct {
		name string
		a, b stat
		want string
	}{
		{"same", lower(1.00, 1.01, 1.02), lower(1.01, 1.02, 1.00), verdictOK},
		{"slower", lower(1.00, 1.01, 1.02), lower(1.20, 1.21, 1.22), verdictRegression},
		{"faster", lower(1.00, 1.01, 1.02), lower(0.80, 0.81, 0.82), verdictOK},
		{"noisy", lower(1.00, 1.01, 1.30), lower(1.01, 1.02, 1.00), verdictUnresolved},
		{"noisy but all better", lower(1.00, 1.01, 1.30), lower(0.70, 0.80, 0.90), verdictOK},
		{"throughput fell", higher(10, 10.1, 10.2), higher(8, 8.1, 8.2), verdictRegression},
		{"throughput rose", higher(10, 10.1, 10.2), higher(12, 12.1, 12.2), verdictOK},
	} {
		if _, got := compareStat(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
