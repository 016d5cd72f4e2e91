package workload

import (
	"math"
	"testing"

	"github.com/irnsim/irn/internal/sim"
)

func TestHeavyTailedShape(t *testing.T) {
	d := NewHeavyTailed()
	rng := sim.NewRNG(1)
	const n = 200000
	var small, mid, large int
	sum := 0.0
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s < 32 || s > 3_000_000 {
			t.Fatalf("sample %d out of range", s)
		}
		switch {
		case s <= 1000:
			small++
		case s <= 200_000:
			mid++
		default:
			large++
		}
		sum += float64(s)
	}
	// §4.1: 50% single-packet (<=1KB), 15% in 200KB-3MB.
	if f := float64(small) / n; math.Abs(f-0.50) > 0.02 {
		t.Errorf("small fraction = %v, want ~0.50", f)
	}
	if f := float64(large) / n; math.Abs(f-0.15) > 0.02 {
		t.Errorf("large fraction = %v, want ~0.15", f)
	}
	// Empirical mean matches the analytic mean.
	if m := sum / n; math.Abs(m-d.Mean())/d.Mean() > 0.05 {
		t.Errorf("empirical mean %v vs analytic %v", m, d.Mean())
	}
	// Most bytes come from large flows (the heavy tail).
	if d.Mean() < 100_000 {
		t.Errorf("mean %v suspiciously small", d.Mean())
	}
}

func TestUniformDist(t *testing.T) {
	d := NewUniform()
	rng := sim.NewRNG(2)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s < 500_000 || s > 5_000_000 {
			t.Fatalf("sample %d out of range", s)
		}
		sum += float64(s)
	}
	if m := sum / n; math.Abs(m-d.Mean())/d.Mean() > 0.02 {
		t.Errorf("mean %v vs %v", m, d.Mean())
	}
}

func TestFixedDist(t *testing.T) {
	d := Fixed(4096)
	if d.Sample(nil) != 4096 || d.Mean() != 4096 {
		t.Error("Fixed broken")
	}
}

func TestGeneratePoissonLoad(t *testing.T) {
	c := PoissonConfig{
		Hosts:         54,
		Load:          0.7,
		RatePsPerByte: 200, // 40 Gbps
		MTU:           1000,
		HeaderBytes:   62,
		NumFlows:      20000,
		Dist:          NewHeavyTailed(),
		Seed:          7,
	}
	flows := Generate(c)
	if len(flows) != c.NumFlows {
		t.Fatalf("flows = %d", len(flows))
	}
	// Arrival times strictly increasing, src != dst, all in range.
	var last sim.Time
	totalBytes := 0.0
	for _, f := range flows {
		if f.Start < last {
			t.Fatal("arrivals not sorted")
		}
		last = f.Start
		if f.Src == f.Dst || int(f.Src) >= c.Hosts || int(f.Dst) >= c.Hosts {
			t.Fatalf("bad endpoints %v", f)
		}
		pkts := float64((f.Size + c.MTU - 1) / c.MTU)
		totalBytes += float64(f.Size) + pkts*float64(c.HeaderBytes)
	}
	// Achieved load over the generation horizon should approximate the
	// target: injected bytes / (hosts × capacity × horizon).
	horizon := float64(last)
	capacity := float64(c.Hosts) * horizon / float64(c.RatePsPerByte)
	load := totalBytes / capacity
	if math.Abs(load-0.7) > 0.07 {
		t.Errorf("achieved load %v, want ~0.7", load)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := PoissonConfig{
		Hosts: 10, Load: 0.5, RatePsPerByte: 200, MTU: 1000, HeaderBytes: 62,
		NumFlows: 100, Dist: NewHeavyTailed(), Seed: 42,
	}
	a := Generate(c)
	b := Generate(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	c.Seed = 43
	d := Generate(c)
	same := 0
	for i := range a {
		if a[i] == d[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Generate(PoissonConfig{Hosts: 1, NumFlows: 10, Load: 0.5})
}

func TestIncast(t *testing.T) {
	flows := Incast(54, 30, 150_000_000, 9)
	if len(flows) != 30 {
		t.Fatalf("flows = %d", len(flows))
	}
	dst := flows[0].Dst
	seen := map[int]bool{int(dst): true}
	for _, f := range flows {
		if f.Dst != dst {
			t.Error("incast must share one destination")
		}
		if f.Src == dst {
			t.Error("sender equals destination")
		}
		if seen[int(f.Src)] {
			t.Errorf("duplicate sender %d", f.Src)
		}
		seen[int(f.Src)] = true
		if f.Size != 5_000_000 {
			t.Errorf("stripe size %d, want 5MB", f.Size)
		}
		if f.Start != 0 {
			t.Error("incast flows start together")
		}
	}
}

func TestIncastPanicsOnBadFanIn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Incast(10, 10, 1000, 1)
}

func TestEmpiricalDists(t *testing.T) {
	for _, d := range []*Empirical{NewWebSearch(), NewHadoop()} {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			lo, hi := d.size[0], d.size[len(d.size)-1]
			rng := sim.NewRNG(3)
			const n = 200000
			sum := 0.0
			for i := 0; i < n; i++ {
				s := d.Sample(rng)
				if float64(s) < lo || float64(s) > hi {
					t.Fatalf("sample %d outside CDF range [%v, %v]", s, lo, hi)
				}
				sum += float64(s)
			}
			// The empirical sample mean converges to the analytic
			// trapezoid mean.
			mean := sum / n
			if math.Abs(mean-d.Mean())/d.Mean() > 0.05 {
				t.Errorf("sample mean %.0f vs analytic %.0f", mean, d.Mean())
			}
		})
	}
	// The means that size the presets: websearch is megabyte-heavy,
	// hadoop stays light enough for the 10⁵-flow figdc run.
	if m := NewWebSearch().Mean(); m < 1e6 || m > 3e6 {
		t.Errorf("websearch mean %.0f outside [1MB, 3MB]", m)
	}
	if m := NewHadoop().Mean(); m < 100_000 || m > 400_000 {
		t.Errorf("hadoop mean %.0f outside [100KB, 400KB]", m)
	}
}

func TestEmpiricalQuantileInterpolation(t *testing.T) {
	// A two-point CDF is uniform on its range under linear
	// interpolation; the analytic mean is the midpoint.
	d := NewEmpirical("flat", [][2]float64{{100, 0}, {200, 1}})
	if d.Mean() != 150 {
		t.Fatalf("mean = %v, want 150", d.Mean())
	}
	rng := sim.NewRNG(9)
	for i := 0; i < 1000; i++ {
		if s := d.Sample(rng); s < 100 || s > 200 {
			t.Fatalf("sample %d outside [100, 200]", s)
		}
	}
}

func TestEmpiricalRejectsBadCDF(t *testing.T) {
	for name, pts := range map[string][][2]float64{
		"no-zero-start":   {{100, 0.5}, {200, 1}},
		"no-one-end":      {{100, 0}, {200, 0.9}},
		"single-point":    {{100, 0}},
		"decreasing-size": {{200, 0}, {100, 1}},
		"decreasing-prob": {{100, 0}, {150, 0.8}, {200, 0.5}, {300, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			NewEmpirical(name, pts)
		}()
	}
}

// TestIncastThenGenerateStartsInOrder pins the order the experiment
// launcher relies on: it streams each host's flows in the order incast
// specs, then Poisson specs, and parks only the next one, so Start must be
// nondecreasing along that sequence — incast flows start at 0 and Poisson
// arrivals are cumulative — for every distribution a preset uses.
func TestIncastThenGenerateStartsInOrder(t *testing.T) {
	for _, d := range []SizeDist{NewHeavyTailed(), NewUniform(), NewWebSearch(), NewHadoop(), Fixed(1000)} {
		for _, load := range []float64{0.1, 0.7, 0.99} {
			for seed := uint64(1); seed <= 3; seed++ {
				specs := Incast(54, 10, 4_000_000, seed)
				specs = append(specs, Generate(PoissonConfig{
					Hosts: 54, Load: load, RatePsPerByte: 200, MTU: 1000, HeaderBytes: 60,
					NumFlows: 2000, Dist: d, Seed: seed,
				})...)
				for i := 1; i < len(specs); i++ {
					if specs[i].Start < specs[i-1].Start {
						t.Fatalf("%s load %.2f seed %d: flow %d starts at %v, before flow %d at %v",
							d.Name(), load, seed, i, specs[i].Start, i-1, specs[i-1].Start)
					}
				}
			}
		}
	}
}
