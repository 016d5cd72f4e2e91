// Package workload generates the traffic patterns of §4.1 and §4.4: flows
// with Poisson inter-arrival times whose sizes come from a realistic
// heavy-tailed distribution (50% single-packet RPCs of 32 B–1 KB, 35%
// mid-size 1 KB–200 KB, 15% large 200 KB–3 MB background/storage
// transfers, derived from [19]), a uniform 500 KB–5 MB alternative
// representing pure storage traffic, and the incast pattern of §4.4.3
// (a transfer striped across M senders toward one destination).
package workload

import (
	"math"
	"sort"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// SizeDist samples message sizes in bytes.
type SizeDist interface {
	// Sample draws one message size.
	Sample(rng *sim.RNG) int
	// Mean returns the expected message size (analytic).
	Mean() float64
	// Name identifies the distribution in reports.
	Name() string
}

// logUniform draws from [lo, hi] with density ∝ 1/x, the standard model
// for flow sizes within a band.
func logUniform(rng *sim.RNG, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// logUniformMean is the analytic mean (b−a)/ln(b/a).
func logUniformMean(a, b float64) float64 {
	if a == b {
		return a
	}
	return (b - a) / math.Log(b/a)
}

// band is one segment of a piecewise distribution.
type band struct {
	p      float64 // probability mass
	lo, hi float64 // size range in bytes
}

// HeavyTailed is the paper's default workload: "Most flows are small (50%
// of the flows are single packet messages with sizes ranging between 32
// bytes-1KB...), and most of the bytes are in large flows (15% of the
// flows are between 200KB-3MB)". The remaining 35% occupy the middle.
type HeavyTailed struct {
	bands []band
}

// NewHeavyTailed returns the default heavy-tailed distribution.
func NewHeavyTailed() *HeavyTailed {
	return &HeavyTailed{bands: []band{
		{0.50, 32, 1_000},
		{0.35, 1_000, 200_000},
		{0.15, 200_000, 3_000_000},
	}}
}

// Sample implements SizeDist.
func (h *HeavyTailed) Sample(rng *sim.RNG) int {
	u := rng.Float64()
	acc := 0.0
	for _, b := range h.bands {
		acc += b.p
		if u < acc {
			return int(logUniform(rng, b.lo, b.hi))
		}
	}
	last := h.bands[len(h.bands)-1]
	return int(logUniform(rng, last.lo, last.hi))
}

// Mean implements SizeDist.
func (h *HeavyTailed) Mean() float64 {
	m := 0.0
	for _, b := range h.bands {
		m += b.p * logUniformMean(b.lo, b.hi)
	}
	return m
}

// Name implements SizeDist.
func (h *HeavyTailed) Name() string { return "heavy-tailed(32B-3MB)" }

// Uniform is the §4.4 alternative: sizes uniform in [Lo, Hi] bytes
// (500 KB–5 MB for the storage/background workload).
type Uniform struct {
	Lo, Hi int
}

// NewUniform returns the paper's uniform storage workload.
func NewUniform() *Uniform { return &Uniform{Lo: 500_000, Hi: 5_000_000} }

// Sample implements SizeDist.
func (u *Uniform) Sample(rng *sim.RNG) int {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + rng.Intn(u.Hi-u.Lo+1)
}

// Mean implements SizeDist.
func (u *Uniform) Mean() float64 { return float64(u.Lo+u.Hi) / 2 }

// Name implements SizeDist.
func (u *Uniform) Name() string { return "uniform(500KB-5MB)" }

// Empirical is a piecewise-linear inverse-CDF distribution defined by
// measured (size, cumulative-probability) points — the form datacenter
// traffic studies publish their flow-size distributions in. Sampling
// draws u ~ U(0,1) and linearly interpolates the size between the two
// bracketing CDF points, so within each segment sizes are uniform and
// the analytic mean is the trapezoid sum Σ Δp·(sᵢ+sᵢ₊₁)/2.
type Empirical struct {
	name string
	size []float64 // strictly increasing sizes in bytes
	cum  []float64 // cumulative probability at each size; cum[0]=0, last=1
}

// NewEmpirical builds a distribution from CDF points. The first point's
// probability must be 0 and the last 1, sizes strictly increasing.
func NewEmpirical(name string, pts [][2]float64) *Empirical {
	if len(pts) < 2 || pts[0][1] != 0 || pts[len(pts)-1][1] != 1 {
		panic("workload: empirical CDF must run from p=0 to p=1")
	}
	e := &Empirical{name: name}
	for i, p := range pts {
		if i > 0 && (p[0] <= pts[i-1][0] || p[1] < pts[i-1][1]) {
			panic("workload: empirical CDF points must be increasing")
		}
		e.size = append(e.size, p[0])
		e.cum = append(e.cum, p[1])
	}
	return e
}

// NewWebSearch returns the DCTCP-style web-search workload: a bimodal
// mix of short queries and multi-megabyte background flows (mean ≈ 1.7 MB).
func NewWebSearch() *Empirical {
	return NewEmpirical("websearch", [][2]float64{
		{100, 0}, {10_000, 0.15}, {20_000, 0.20}, {30_000, 0.30},
		{50_000, 0.40}, {80_000, 0.53}, {200_000, 0.60}, {1_000_000, 0.70},
		{2_000_000, 0.80}, {5_000_000, 0.90}, {10_000_000, 0.97},
		{30_000_000, 1},
	})
}

// NewHadoop returns the Facebook-Hadoop-style workload: dominated by
// sub-2KB RPCs with a thin multi-megabyte tail (mean ≈ 200 KB) — the
// figdc datacenter preset's default, light enough per flow that 10⁵
// flows stay tractable in a serial run.
func NewHadoop() *Empirical {
	return NewEmpirical("hadoop", [][2]float64{
		{130, 0}, {250, 0.20}, {600, 0.40}, {1_500, 0.60},
		{10_000, 0.70}, {50_000, 0.80}, {300_000, 0.90},
		{1_000_000, 0.96}, {5_000_000, 0.995}, {10_000_000, 1},
	})
}

// Sample implements SizeDist.
func (e *Empirical) Sample(rng *sim.RNG) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(e.cum, u)
	if i == 0 {
		i = 1
	}
	if i >= len(e.cum) {
		i = len(e.cum) - 1
	}
	lo, hi := e.size[i-1], e.size[i]
	f := 1.0
	if e.cum[i] > e.cum[i-1] {
		f = (u - e.cum[i-1]) / (e.cum[i] - e.cum[i-1])
	}
	return int(lo + f*(hi-lo))
}

// Mean implements SizeDist (trapezoid sum over CDF segments).
func (e *Empirical) Mean() float64 {
	m := 0.0
	for i := 1; i < len(e.size); i++ {
		m += (e.cum[i] - e.cum[i-1]) * (e.size[i] + e.size[i-1]) / 2
	}
	return m
}

// Name implements SizeDist.
func (e *Empirical) Name() string { return "empirical(" + e.name + ")" }

// Fixed always returns the same size (microbenchmarks).
type Fixed int

// Sample implements SizeDist.
func (f Fixed) Sample(*sim.RNG) int { return int(f) }

// Mean implements SizeDist.
func (f Fixed) Mean() float64 { return float64(f) }

// Name implements SizeDist.
func (f Fixed) Name() string { return "fixed" }

// Spec describes one generated flow.
type Spec struct {
	Src, Dst packet.NodeID
	Size     int
	Start    sim.Time
}

// PoissonConfig drives Generate.
type PoissonConfig struct {
	Hosts int
	// Load is the target average utilization of host access links.
	Load float64
	// RatePsPerByte is the link rate (fabric.Rate).
	RatePsPerByte int64
	// MTU and HeaderBytes size the wire overhead included in the load
	// computation.
	MTU         int
	HeaderBytes int
	// NumFlows is how many flows to generate.
	NumFlows int
	// Dist samples flow sizes.
	Dist SizeDist
	// Seed makes the workload reproducible.
	Seed uint64
}

// meanWireBytes estimates the mean bytes-on-wire per flow, including
// per-packet headers.
func (c *PoissonConfig) meanWireBytes() float64 {
	mean := c.Dist.Mean()
	pkts := mean / float64(c.MTU)
	if pkts < 1 {
		pkts = 1
	}
	return mean + pkts*float64(c.HeaderBytes)
}

// ExpectedSpan returns NumFlows times the mean Poisson inter-arrival gap,
// in picoseconds as a float that cannot wrap. The span scales as 1/Load,
// the lever the endurance harness inverts to stretch a fixed flow budget
// across a target simulated horizon.
func (c PoissonConfig) ExpectedSpan() float64 {
	return float64(c.NumFlows) * float64(c.RatePsPerByte) * c.meanWireBytes() / (float64(c.Hosts) * c.Load)
}

// Generate produces flows with Poisson inter-arrival times at the
// aggregate rate that hits the configured load, uniformly random sources
// and destinations (src ≠ dst), and sizes from the distribution.
func Generate(c PoissonConfig) []Spec {
	if c.Hosts < 2 || c.NumFlows <= 0 || c.Load <= 0 {
		panic("workload: bad Poisson config")
	}
	rng := sim.NewRNG(c.Seed ^ 0x9e3779b97f4a7c15)

	// Per-host injection rate in bytes per picosecond is load/rate.
	// Aggregate flow arrival rate: hosts·load/(rate·meanWire) flows/ps →
	// mean inter-arrival = rate·meanWire/(hosts·load).
	meanGap := float64(c.RatePsPerByte) * c.meanWireBytes() / (float64(c.Hosts) * c.Load)

	flows := make([]Spec, 0, c.NumFlows)
	t := 0.0
	for i := 0; i < c.NumFlows; i++ {
		t += rng.ExpFloat64() * meanGap
		src := rng.Intn(c.Hosts)
		dst := rng.Intn(c.Hosts - 1)
		if dst >= src {
			dst++
		}
		flows = append(flows, Spec{
			Src:   packet.NodeID(src),
			Dst:   packet.NodeID(dst),
			Size:  c.Dist.Sample(rng),
			Start: sim.Time(t),
		})
	}
	return flows
}

// Incast builds the §4.4.3 pattern: totalBytes striped evenly across m
// randomly chosen senders, all transmitting to one randomly chosen
// destination starting at time 0.
func Incast(hosts, m, totalBytes int, seed uint64) []Spec {
	if m < 1 || m >= hosts {
		panic("workload: incast fan-in must be in [1, hosts)")
	}
	rng := sim.NewRNG(seed ^ 0x1ca57)
	perm := rng.Perm(hosts)
	dst := packet.NodeID(perm[0])
	per := totalBytes / m
	flows := make([]Spec, 0, m)
	for i := 0; i < m; i++ {
		flows = append(flows, Spec{
			Src:   packet.NodeID(perm[i+1]),
			Dst:   dst,
			Size:  per,
			Start: 0,
		})
	}
	return flows
}
