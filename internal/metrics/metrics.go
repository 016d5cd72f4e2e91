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
// run bit for bit. NearestRank is the sort-based reference statistic: the
// differential harness in internal/exp applies it to the sorted FCTs of a
// run's finished flows and pins the streaming quantiles within
// QuantileEpsilon of it.
package metrics

import (
	"fmt"
	"math"

	"github.com/irnsim/irn/internal/sim"
)

// FlowRecord captures one completed flow. Its slowdown is FCT / Ideal, or
// 0 when Ideal is 0.
type FlowRecord struct {
	Size         int
	Pkts         int
	FCT          sim.Duration
	Ideal        sim.Duration
	SinglePacket bool
}

// slowdownScale quantizes per-flow slowdowns onto an integer micro-unit
// grid before summing. Integer addition is exact and order-independent,
// so the mean slowdown — unlike a float sum — is identical for every
// sharding of the flow stream. The quantization error per flow is at
// most 5e-7, far below anything the reports print.
const slowdownScale = 1e6

// Collector accumulates flow records as streaming aggregates. The zero
// value is an empty collector.
type Collector struct {
	count      uint64
	incomplete int

	fctSum    int64 // exact picosecond sum
	slowMicro int64 // quantized slowdown sum (slowdownScale units)

	fct    Histogram // all completed flows' FCTs
	onePkt Histogram // single-packet-message FCTs (Figure 8)
}

// Add records a completed flow.
func (c *Collector) Add(r FlowRecord) {
	c.count++
	c.fctSum += int64(r.FCT)
	if r.Ideal > 0 {
		c.slowMicro += int64(math.Round(float64(r.FCT) / float64(r.Ideal) * slowdownScale))
	}
	c.fct.Observe(int64(r.FCT))
	if r.SinglePacket {
		c.onePkt.Observe(int64(r.FCT))
	}
}

// AddIncomplete counts a flow that failed to finish before the deadline.
func (c *Collector) AddIncomplete() { c.incomplete++ }

// Merge folds another collector into c — the sharded launcher's fold.
// Integer state merges exactly in any order.
func (c *Collector) Merge(o *Collector) {
	c.count += o.count
	c.incomplete += o.incomplete
	c.fctSum += o.fctSum
	c.slowMicro += o.slowMicro
	c.fct.Merge(&o.fct)
	c.onePkt.Merge(&o.onePkt)
}

// Count returns the number of completed flows.
func (c *Collector) Count() int { return int(c.count) }

// Incomplete returns the number of unfinished flows.
func (c *Collector) Incomplete() int { return c.incomplete }

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
// fixed-size sketches. It is a constant (~18 KB once both sketches have
// observations) independent of flow count — the memory-bound regression
// tests assert exactly that.
func (c *Collector) MemFootprint() int {
	return c.fct.footprint() + c.onePkt.footprint() + 128
}

// NearestRank is the reference quantile: the p-th percentile (p in
// (0,100]) of sorted, an ascending slice, by the nearest-rank rule. It
// returns 0 for an empty slice. Histogram.Quantile picks its rank with
// the same arithmetic (ceilFrac), so the two agree on which order
// statistic a percentile names.
func NearestRank(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
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
