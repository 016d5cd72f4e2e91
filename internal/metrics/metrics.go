// Package metrics collects and summarizes the paper's three performance
// metrics (§4.1): average slowdown (FCT divided by the empty-network ideal
// along the same path — dominated by latency-sensitive short flows),
// average flow completion time, and 99th-percentile (tail) FCT — plus the
// 90–99.9%ile single-packet-message latency CDF of Figure 8 and the incast
// request completion time of Figure 9.
//
// The collector is streaming: O(1) state per metric — integer sums and two
// fixed-size log-scale histograms (hist.go) — regardless of flow count,
// so datacenter-scale presets (figdc: 10⁵+ flows) don't hold a per-flow
// record slice alive. Collectors merge deterministically: every aggregate
// is an integer (or derived from integers by a fixed arithmetic sequence),
// so folding per-shard collectors in any grouping reproduces the serial
// run bit for bit. An exact mode (NewExact) additionally retains raw
// records and exposes the old sort-based reference computations; the
// differential harness in internal/exp runs both side by side and pins
// the streaming quantiles within QuantileEpsilon of exact.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"github.com/irnsim/irn/internal/sim"
)

// FlowRecord captures one completed flow.
type FlowRecord struct {
	Size         int
	Pkts         int
	FCT          sim.Duration
	Ideal        sim.Duration
	Slowdown     float64
	SinglePacket bool
}

// slowdownScale quantizes per-flow slowdowns onto an integer micro-unit
// grid before summing. Integer addition is exact and order-independent,
// so the mean slowdown — unlike a float sum — is identical for every
// sharding of the flow stream. The quantization error per flow is at
// most 5e-7, far below anything the reports print.
const slowdownScale = 1e6

// Collector accumulates flow records as streaming aggregates. The zero
// value is an empty streaming collector; NewExact returns one that also
// retains records for reference computations.
type Collector struct {
	count      uint64
	incomplete int

	fctSum    int64 // exact picosecond sum
	slowMicro int64 // quantized slowdown sum (slowdownScale units)

	fct    Histogram // all completed flows' FCTs
	onePkt Histogram // single-packet-message FCTs (Figure 8)

	exact   bool
	records []FlowRecord // exact mode only
}

// NewExact returns a collector that additionally keeps every record, so
// the Exact* reference methods (sorted-order statistics, float-sum
// means) are available for differential testing. Memory is O(flows)
// again in this mode — it exists for harnesses, not for runs.
func NewExact() *Collector { return &Collector{exact: true} }

// Exact reports whether the collector retains raw records.
func (c *Collector) Exact() bool { return c.exact }

// Add records a completed flow.
func (c *Collector) Add(r FlowRecord) {
	if r.Ideal > 0 && r.Slowdown == 0 {
		r.Slowdown = float64(r.FCT) / float64(r.Ideal)
	}
	c.count++
	c.fctSum += int64(r.FCT)
	c.slowMicro += int64(math.Round(r.Slowdown * slowdownScale))
	c.fct.Observe(int64(r.FCT))
	if r.SinglePacket {
		c.onePkt.Observe(int64(r.FCT))
	}
	if c.exact {
		c.records = append(c.records, r)
	}
}

// AddIncomplete counts a flow that failed to finish before the deadline.
func (c *Collector) AddIncomplete() { c.incomplete++ }

// Merge folds another collector into c — the sharded launcher's fold.
// Integer state merges exactly in any order; records append (exact mode
// on both sides only) in call order.
func (c *Collector) Merge(o *Collector) {
	c.count += o.count
	c.incomplete += o.incomplete
	c.fctSum += o.fctSum
	c.slowMicro += o.slowMicro
	c.fct.Merge(&o.fct)
	c.onePkt.Merge(&o.onePkt)
	if c.exact && o.exact {
		c.records = append(c.records, o.records...)
	}
}

// Count returns the number of completed flows.
func (c *Collector) Count() int { return int(c.count) }

// Incomplete returns the number of unfinished flows.
func (c *Collector) Incomplete() int { return c.incomplete }

// Records returns a copy of the retained records (exact mode), or nil
// for a streaming collector, which keeps none. The copy is deliberate:
// callers sort and slice report data freely without aliasing collector
// state.
func (c *Collector) Records() []FlowRecord {
	if c.records == nil {
		return nil
	}
	out := make([]FlowRecord, len(c.records))
	copy(out, c.records)
	return out
}

// AvgSlowdown returns the mean slowdown (micro-unit quantized).
func (c *Collector) AvgSlowdown() float64 {
	if c.count == 0 {
		return 0
	}
	return float64(c.slowMicro) / slowdownScale / float64(c.count)
}

// AvgFCT returns the mean flow completion time (integer division of the
// exact picosecond sum — the historical convention, preserved so golden
// fixtures survive the streaming rewrite unchanged on this field).
func (c *Collector) AvgFCT() sim.Duration {
	if c.count == 0 {
		return 0
	}
	return sim.Duration(c.fctSum / int64(c.count))
}

// TailFCT returns the 99th-percentile FCT.
func (c *Collector) TailFCT() sim.Duration { return c.PercentileFCT(99) }

// PercentileFCT returns the p-th percentile FCT (p in (0,100]) from the
// streaming sketch, within QuantileEpsilon of the exact order statistic.
func (c *Collector) PercentileFCT(p float64) sim.Duration {
	return sim.Duration(c.fct.Quantile(p))
}

// FCTHistogram exposes the FCT sketch (persisted by the exp store).
func (c *Collector) FCTHistogram() *Histogram { return &c.fct }

// SinglePacketTail returns the latency CDF points for single-packet
// messages at the given percentiles — the Figure 8 series.
func (c *Collector) SinglePacketTail(percentiles []float64) []CDFPoint {
	if c.onePkt.N() == 0 {
		return nil
	}
	pts := make([]CDFPoint, 0, len(percentiles))
	for _, p := range percentiles {
		pts = append(pts, CDFPoint{
			Percentile: p,
			Latency:    sim.Duration(c.onePkt.Quantile(p)),
		})
	}
	return pts
}

// MemFootprint approximates the collector's live heap bytes: the two
// fixed-size sketches plus any retained records. For a streaming
// collector this is a constant (~18 KB once both sketches have
// observations) independent of flow count — the memory-bound regression
// tests assert exactly that.
func (c *Collector) MemFootprint() int {
	const recordSize = 48 // unsafe.Sizeof(FlowRecord{}) on 64-bit
	return c.fct.footprint() + c.onePkt.footprint() + 128 + cap(c.records)*recordSize
}

// ExactAvgSlowdown is the reference mean: a float sum over records in
// collection order (exact mode only; 0 otherwise).
func (c *Collector) ExactAvgSlowdown() float64 {
	if len(c.records) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range c.records {
		s += r.Slowdown
	}
	return s / float64(len(c.records))
}

// ExactAvgFCT is the reference mean FCT over retained records (exact
// mode only; 0 otherwise).
func (c *Collector) ExactAvgFCT() sim.Duration {
	if len(c.records) == 0 {
		return 0
	}
	var s int64
	for _, r := range c.records {
		s += int64(r.FCT)
	}
	return sim.Duration(s / int64(len(c.records)))
}

// ExactPercentileFCT is the reference quantile: sort all retained FCTs
// and take the nearest rank (exact mode only; 0 otherwise).
func (c *Collector) ExactPercentileFCT(p float64) sim.Duration {
	if len(c.records) == 0 {
		return 0
	}
	fcts := make([]int64, len(c.records))
	for i, r := range c.records {
		fcts[i] = int64(r.FCT)
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	return sim.Duration(fcts[percentileIndex(len(fcts), p)])
}

// percentileIndex maps a percentile to a sorted-slice index (nearest-rank).
func percentileIndex(n int, p float64) int {
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// ExactSinglePacketTail is the reference Figure 8 series from retained
// records (exact mode only; nil otherwise).
func (c *Collector) ExactSinglePacketTail(percentiles []float64) []CDFPoint {
	var fcts []int64
	for _, r := range c.records {
		if r.SinglePacket {
			fcts = append(fcts, int64(r.FCT))
		}
	}
	if len(fcts) == 0 {
		return nil
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	pts := make([]CDFPoint, 0, len(percentiles))
	for _, p := range percentiles {
		pts = append(pts, CDFPoint{
			Percentile: p,
			Latency:    sim.Duration(fcts[percentileIndex(len(fcts), p)]),
		})
	}
	return pts
}

// CDFPoint is one point of a latency CDF.
type CDFPoint struct {
	Percentile float64
	Latency    sim.Duration
}

// Summary bundles the headline metrics. Every field is reproduced
// bit-identically for any shard count (integer accumulators and
// sketches only).
type Summary struct {
	Flows       int
	Incomplete  int
	AvgSlowdown float64
	AvgFCT      sim.Duration
	TailFCT     sim.Duration
	// P50FCT/P90FCT/P999FCT widen the tail picture now that quantiles
	// are O(1) to read; the store persists them alongside p99.
	P50FCT  sim.Duration
	P90FCT  sim.Duration
	P999FCT sim.Duration
}

// Summarize computes the headline metrics.
func (c *Collector) Summarize() Summary {
	return Summary{
		Flows:       c.Count(),
		Incomplete:  c.Incomplete(),
		AvgSlowdown: c.AvgSlowdown(),
		AvgFCT:      c.AvgFCT(),
		TailFCT:     c.TailFCT(),
		P50FCT:      c.PercentileFCT(50),
		P90FCT:      c.PercentileFCT(90),
		P999FCT:     c.PercentileFCT(99.9),
	}
}

// String renders the summary in the paper's reporting units.
func (s Summary) String() string {
	return fmt.Sprintf("flows=%d incomplete=%d avg_slowdown=%.2f avg_fct=%.4fms p99_fct=%.4fms",
		s.Flows, s.Incomplete, s.AvgSlowdown, s.AvgFCT.Millis(), s.TailFCT.Millis())
}

// Ratio returns a/b guarding against division by zero; used for the
// appendix tables' IRN/(IRN+PFC) and IRN/(RoCE+PFC) rows.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
