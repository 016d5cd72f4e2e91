package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Log-scale histogram with a priori bounded relative quantile error.
//
// Bucket boundaries are fixed at package init and shared by every
// Histogram: starting from 1, each bucket's width is max(1, lo/26), i.e.
// the boundaries grow by a factor of ~1+1/26 ≈ 1.0385 once buckets are
// wider than one unit. Small integers (1..51) get exact width-1 buckets.
// A bucket [lo, hi) is reported as its integer midpoint lo+(hi-lo-1)/2,
// so the distance from the reported value to any value in the bucket is
// at most ceil((w-1)/2) ≤ w/2 ≤ lo/52 — a guaranteed relative error of
// at most 1/52 ≈ 1.93%, within the documented ε = 2% (QuantileEpsilon).
// Quantiles are additionally clamped to the exact observed [min, max],
// so extreme quantiles (p→0, p→100) are exact.
//
// The scheme is pure integer arithmetic: bucket placement, counts, and
// reported values are identical on every platform and in every merge
// order, which is what lets sharded collectors fold deterministically
// (the engine's bit-identical-across-shard-counts contract covers the
// sketch state too).
//
// ~1100 buckets cover [1, 2^62] (picoseconds → ~53 simulated days), 8 KB
// of counts per histogram — the fixed footprint that replaces the old
// O(flows) record slice.

// QuantileEpsilon is the documented relative-error bound on streaming
// quantiles: |streaming − exact| ≤ QuantileEpsilon × exact. The bucket
// scheme guarantees 1/52 ≈ 1.93%; the differential harness asserts the
// rounder 2% across every figure preset.
const QuantileEpsilon = 0.02

// histSchemeID names the bucket layout inside persisted sketches, so a
// future change to the boundaries cannot silently misread old files.
const histSchemeID = "lin26-v1"

var (
	histBounds []int64 // bucket lower bounds; strictly increasing, histBounds[0] = 1
	histReps   []int64 // reported representative value per bucket
)

func init() {
	const maxBound = int64(1) << 62
	lo := int64(1)
	for lo <= maxBound {
		w := lo / 26
		if w < 1 {
			w = 1
		}
		histBounds = append(histBounds, lo)
		histReps = append(histReps, lo+(w-1)/2)
		lo += w
	}
}

// bucketIndex maps a value to its bucket. Values below the first bound
// (v ≤ 0) collapse into bucket 0.
func bucketIndex(v int64) int {
	// First bound strictly greater than v, minus one.
	i := sort.Search(len(histBounds), func(i int) bool { return histBounds[i] > v })
	if i == 0 {
		return 0
	}
	return i - 1
}

// Histogram is a fixed-bucket log-scale sketch of a duration (or any
// non-negative int64) distribution. The zero value is empty and ready to
// use; counts are allocated on first Observe. Merging is exact (integer
// bucket counts), associative, commutative, and order-independent.
type Histogram struct {
	counts   []uint64
	n        uint64
	min, max int64 // exact observed extrema; valid when n > 0
}

// Observe adds one value to the sketch.
func (h *Histogram) Observe(v int64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(histBounds))
	}
	h.counts[bucketIndex(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

// N returns the number of observed values.
func (h *Histogram) N() uint64 { return h.n }

// Min returns the exact smallest observed value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observed value (0 when empty).
func (h *Histogram) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Merge folds o into h. Counts add exactly, so any merge order — and any
// sharding of one observation stream across histograms — produces the
// same state as a single histogram observing everything.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, len(histBounds))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// Quantile returns the p-th percentile (p in (0, 100]) under the same
// nearest-rank convention the old sort-based path used: the value whose
// cumulative count first reaches ceil(p/100 × n). The result is a bucket
// representative clamped to the exact [min, max], so it is within
// QuantileEpsilon relative error of the exact order statistic.
func (h *Histogram) Quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(ceilFrac(p, h.n))
	if rank <= 1 {
		return h.min // exact first order statistic
	}
	if rank >= h.n {
		return h.max // exact last order statistic
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := histReps[i]
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// ceilFrac computes ceil(p/100 × n) in floats — the same arithmetic as
// NearestRank, so the sketch and the sorted reference pick the same rank.
func ceilFrac(p float64, n uint64) int64 {
	r := p / 100 * float64(n)
	i := int64(r)
	if float64(i) < r {
		i++
	}
	return i
}

// histJSON is the sparse persisted form of a Histogram (store schema v2).
type histJSON struct {
	Scheme  string     `json:"scheme"`
	N       uint64     `json:"n"`
	Min     int64      `json:"min,omitempty"`
	Max     int64      `json:"max,omitempty"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// MarshalJSON encodes only non-empty buckets, tagged with the bucket-
// scheme id so layout changes are detected at load time.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	j := histJSON{Scheme: histSchemeID, N: h.n}
	if h.n > 0 {
		j.Min, j.Max = h.min, h.max
		for i, c := range h.counts {
			if c > 0 {
				j.Buckets = append(j.Buckets, [2]int64{int64(i), int64(c)})
			}
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON reconstructs the sketch written by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Scheme != histSchemeID {
		return fmt.Errorf("metrics: histogram bucket scheme %q, want %q", j.Scheme, histSchemeID)
	}
	*h = Histogram{n: j.N, min: j.Min, max: j.Max}
	if j.N == 0 {
		return nil
	}
	h.counts = make([]uint64, len(histBounds))
	for _, b := range j.Buckets {
		if b[0] < 0 || b[0] >= int64(len(histBounds)) {
			return fmt.Errorf("metrics: histogram bucket index %d out of range", b[0])
		}
		h.counts[b[0]] = uint64(b[1])
	}
	return nil
}

// footprint approximates the live heap bytes held by the sketch.
func (h *Histogram) footprint() int {
	return 8*len(h.counts) + 32
}
