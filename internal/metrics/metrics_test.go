package metrics

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/irnsim/irn/internal/sim"
)

// relErr is the relative error of got against a non-zero want.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

func TestCollectorBasics(t *testing.T) {
	var c Collector
	if c.AvgSlowdown() != 0 || c.AvgFCT() != 0 || c.TailFCT() != 0 {
		t.Error("empty collector must report zeros")
	}
	c.Add(FlowRecord{Size: 1000, FCT: 200, Ideal: 100})
	c.Add(FlowRecord{Size: 1000, FCT: 300, Ideal: 100})
	if c.Count() != 2 {
		t.Fatalf("count = %d", c.Count())
	}
	if got := c.AvgSlowdown(); got != 2.5 {
		t.Errorf("avg slowdown = %v, want 2.5", got)
	}
	if got := c.AvgFCT(); got != 250 {
		t.Errorf("avg fct = %v, want 250", got)
	}
}

func TestSlowdownPrecomputedWins(t *testing.T) {
	var c Collector
	c.Add(FlowRecord{FCT: 500, Ideal: 100, Slowdown: 7})
	if c.AvgSlowdown() != 7 {
		t.Error("explicit slowdown must not be recomputed")
	}
}

func TestPercentiles(t *testing.T) {
	var c Collector
	for i := 1; i <= 100; i++ {
		c.Add(FlowRecord{FCT: sim.Duration(i), Ideal: 1})
	}
	// Streaming quantiles land within the documented ε of the exact
	// order statistic; the extremes are exact (min/max clamping).
	for _, tc := range []struct {
		p     float64
		exact float64
	}{{50, 50}, {90, 90}, {99, 99}} {
		got := float64(c.PercentileFCT(tc.p))
		if relErr(got, tc.exact) > QuantileEpsilon {
			t.Errorf("p%v = %v, want %v ± %v%%", tc.p, got, tc.exact, QuantileEpsilon*100)
		}
	}
	if got := c.PercentileFCT(100); got != 100 {
		t.Errorf("p100 = %v, want exact max 100", got)
	}
	if got := float64(c.TailFCT()); relErr(got, 99) > QuantileEpsilon {
		t.Errorf("tail = %v", got)
	}
}

func TestExactReferenceSemantics(t *testing.T) {
	// Exact mode preserves the historical sort-based behavior bit for
	// bit — the reference the differential harness compares against.
	c := NewExact()
	for i := 1; i <= 100; i++ {
		c.Add(FlowRecord{FCT: sim.Duration(i), Ideal: 1})
	}
	if got := c.ExactPercentileFCT(99); got != 99 {
		t.Errorf("exact p99 = %v, want 99", got)
	}
	if got := c.ExactPercentileFCT(50); got != 50 {
		t.Errorf("exact p50 = %v, want 50", got)
	}
	if got := c.ExactPercentileFCT(100); got != 100 {
		t.Errorf("exact p100 = %v, want 100", got)
	}
	if got := c.ExactAvgFCT(); got != c.AvgFCT() {
		t.Errorf("exact avg %v != streaming avg %v", got, c.AvgFCT())
	}
	if relErr(c.ExactAvgSlowdown(), c.AvgSlowdown()) > 1e-6 {
		t.Errorf("exact slowdown %v vs streaming %v", c.ExactAvgSlowdown(), c.AvgSlowdown())
	}
}

func TestRecordsCopied(t *testing.T) {
	// Streaming collectors retain nothing; exact collectors hand out a
	// copy that callers may sort or truncate freely.
	var stream Collector
	stream.Add(FlowRecord{FCT: 5, Ideal: 1})
	if stream.Records() != nil {
		t.Error("streaming collector must not retain records")
	}
	ex := NewExact()
	ex.Add(FlowRecord{FCT: 5, Ideal: 1})
	ex.Add(FlowRecord{FCT: 9, Ideal: 1})
	recs := ex.Records()
	recs[0].FCT = 12345
	if got := ex.Records()[0].FCT; got != 5 {
		t.Errorf("mutating the returned slice leaked into the collector: %v", got)
	}
}

func TestSinglePacketTail(t *testing.T) {
	var c Collector
	for i := 1; i <= 1000; i++ {
		c.Add(FlowRecord{FCT: sim.Duration(i), Ideal: 1, SinglePacket: i%2 == 0})
	}
	pts := c.SinglePacketTail([]float64{90, 99, 99.9})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Percentile != 90 || pts[0].Latency < 850 || pts[0].Latency > 950 {
		t.Errorf("p90 = %+v", pts[0])
	}
	if pts[2].Latency < pts[1].Latency || pts[1].Latency < pts[0].Latency {
		t.Error("CDF must be monotone")
	}
	// No single-packet records → nil.
	var empty Collector
	empty.Add(FlowRecord{FCT: 5, Ideal: 1})
	if empty.SinglePacketTail([]float64{99}) != nil {
		t.Error("want nil with no single-packet flows")
	}
}

func TestSummaryString(t *testing.T) {
	var c Collector
	c.Add(FlowRecord{FCT: sim.Duration(2 * sim.Millisecond), Ideal: sim.Duration(1 * sim.Millisecond)})
	c.AddIncomplete()
	s := c.Summarize()
	if s.Flows != 1 || s.Incomplete != 1 {
		t.Errorf("summary %+v", s)
	}
	str := s.String()
	for _, want := range []string{"avg_slowdown=2.00", "incomplete=1", "avg_fct=2.0000ms"} {
		if !strings.Contains(str, want) {
			t.Errorf("summary %q missing %q", str, want)
		}
	}
}

func TestCollectorMergeMatchesSingle(t *testing.T) {
	// Sharding a record stream across collectors and merging in any
	// grouping must reproduce the single collector's aggregates exactly
	// — the contract the sharded launcher's fold depends on.
	recs := syntheticRecords(999)
	var single Collector
	for _, r := range recs {
		single.Add(r)
	}
	shards := []*Collector{{}, {}, {}}
	for i, r := range recs {
		shards[i%3].Add(r)
	}
	// Two different merge groupings.
	var m1 Collector
	for _, s := range shards {
		m1.Merge(s)
	}
	var m2 Collector
	m2.Merge(shards[2])
	m2.Merge(shards[0])
	m2.Merge(shards[1])
	for _, m := range []*Collector{&m1, &m2} {
		if m.Summarize() != single.Summarize() {
			t.Fatalf("merged summary %+v != single %+v", m.Summarize(), single.Summarize())
		}
		if m.AvgSlowdown() != single.AvgSlowdown() {
			t.Fatalf("merged slowdown %v != single %v", m.AvgSlowdown(), single.AvgSlowdown())
		}
	}
}

// syntheticRecords builds a deterministic heavy-tail-ish record stream
// with realistic FCT magnitudes (tens of µs to tens of ms).
func syntheticRecords(n int) []FlowRecord {
	rng := sim.NewRNG(42)
	recs := make([]FlowRecord, 0, n)
	for i := 0; i < n; i++ {
		fct := sim.Duration(20_000_000 + rng.Intn(1_000_000_000)) // 20 µs .. ~1 ms
		if i%17 == 0 {
			fct *= 31 // tail
		}
		ideal := fct / sim.Duration(1+rng.Intn(9))
		recs = append(recs, FlowRecord{
			Size:         1000 * (i + 1),
			Pkts:         1 + i%64,
			FCT:          fct,
			Ideal:        ideal,
			SinglePacket: i%3 == 0,
		})
	}
	return recs
}

func TestStreamingQuantilesWithinEpsilon(t *testing.T) {
	// Differential property at the package level: streaming quantiles
	// against the exact sorted reference on a realistic distribution.
	c := NewExact()
	for _, r := range syntheticRecords(5000) {
		c.Add(r)
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
		got := float64(c.PercentileFCT(p))
		want := float64(c.ExactPercentileFCT(p))
		if relErr(got, want) > QuantileEpsilon {
			t.Errorf("p%v: streaming %v vs exact %v (rel err %v)", p, got, want, relErr(got, want))
		}
	}
	sp := c.SinglePacketTail([]float64{90, 95, 99, 99.9})
	ref := c.ExactSinglePacketTail([]float64{90, 95, 99, 99.9})
	for i := range sp {
		if relErr(float64(sp[i].Latency), float64(ref[i].Latency)) > QuantileEpsilon {
			t.Errorf("single-packet p%v: %v vs %v", sp[i].Percentile, sp[i].Latency, ref[i].Latency)
		}
	}
}

func TestCollectorAddAllocsO1(t *testing.T) {
	// Steady-state Add must not allocate: the sketches are fixed-size
	// and lazily allocated exactly once. (The warm-up run AllocsPerRun
	// performs absorbs the one-time counts allocation.)
	var c Collector
	r := FlowRecord{FCT: 123_456_789, Ideal: 1_000_000, SinglePacket: true}
	if n := testing.AllocsPerRun(1000, func() { c.Add(r) }); n != 0 {
		t.Errorf("Add allocates %v per call, want 0", n)
	}
}

func TestCollectorMemoryBounded(t *testing.T) {
	// Hard byte budget via MemStats delta: 100k flows through a
	// streaming collector must not grow the live heap beyond the two
	// fixed sketches (≈18 KB) plus slack — nothing per-flow survives.
	recs := syntheticRecords(1000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := &Collector{}
	for i := 0; i < 100_000; i++ {
		c.Add(recs[i%len(recs)])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const budget = 256 << 10
	if delta > budget {
		t.Errorf("live heap grew by %d bytes for 100k flows, budget %d", delta, budget)
	}
	if c.Count() != 100_000 {
		t.Fatalf("count = %d", c.Count())
	}
	if fp := c.MemFootprint(); fp > 64<<10 {
		t.Errorf("MemFootprint = %d, want O(sketches) < 64KB", fp)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != 0.5 {
		t.Error("ratio broken")
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Error("ratio by zero must be NaN")
	}
}
