package exp

import (
	"fmt"
	"runtime"

	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// EnduranceConfig drives a long-horizon soak: segments of simulated time
// on one large fat-tree, each under a freshly sampled cycle of a named
// chaos suite, run back to back on a single Worker so the zero-rebuild
// reuse path carries the whole soak. The soak runs IRN without PFC. The
// zero value (after normalization) soaks a k=10 fat-tree for six
// 20-second segments — two minutes of simulated time — under the
// "rolling" suite.
type EnduranceConfig struct {
	Arity    int          // fat-tree arity; default 10 (250 hosts)
	Segments int          // default 6
	Flows    int          // flows per segment; default 3000
	Horizon  sim.Duration // target simulated time per segment; default 20 s
	Cycles   int          // chaos cycles per segment; default 6
	Suite    string       // chaos suite name; default "rolling"
	Seed     uint64       // default 1
	// Log, when set, receives one progress line per segment.
	Log func(string)
}

// normalize fills defaults.
func (c EnduranceConfig) normalize() EnduranceConfig {
	if c.Arity == 0 {
		c.Arity = 10
	}
	if c.Segments == 0 {
		c.Segments = 6
	}
	if c.Flows == 0 {
		c.Flows = 3000
	}
	if c.Horizon == 0 {
		c.Horizon = 20 * sim.Second
	}
	if c.Cycles == 0 {
		c.Cycles = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// EnduranceSegment is one soak segment's outcome plus the live heap
// observed after it (post-GC) and the packets the worker's pools own —
// the bounded-memory series the soak asserts on.
type EnduranceSegment struct {
	Result
	HeapLive uint64
	PoolCap  int
}

// EnduranceReport aggregates a soak.
type EnduranceReport struct {
	Segments []EnduranceSegment
	// SimTime is the total simulated time across segments.
	SimTime sim.Duration
	// Rebuilds is how many fabrics the worker constructed: 1 when the
	// zero-rebuild path held for every segment after the first.
	Rebuilds int
}

// RunEndurance executes the soak and verifies, after every segment, the
// packet-conservation census and the pool accounting — the same equations
// the invariant harness asserts — failing fast with a descriptive error
// on the first violation. Memory stays bounded by construction (streaming
// collectors, pooled packets, zero-rebuild fabric reuse); the per-segment
// HeapLive series in the report is what tests assert a budget over. A
// configuration it cannot run is a *FieldError, returned before anything
// is built.
//
// The chaos schedule of segment i is the configured suite with link
// samples drawn from DeriveSeed(seed, "endurance/segment", i), compiled
// against the soak topology; its cycles span the segment's expected
// arrival horizon, which the workload's Load is chosen to stretch to
// cfg.Horizon (low load = long horizon at a fixed flow budget — the soak
// measures sustained robustness, not congestion).
func RunEndurance(cfg EnduranceConfig) (EnduranceReport, error) {
	cfg = cfg.normalize()
	var rep EnduranceReport
	if cfg.Segments < 0 {
		return rep, &FieldError{Field: "Segments", Err: fmt.Errorf("segment count %d must be >= 0 (0 = 6)", cfg.Segments)}
	}
	base := Scenario{Arity: cfg.Arity, NumFlows: cfg.Flows}
	if err := base.Validate(); err != nil {
		return rep, err
	}

	t := topo.NewFatTree(cfg.Arity)
	suite, ok := fault.SuiteByName(cfg.Suite)
	if !ok {
		return rep, &FieldError{Field: "Suite", Err: fmt.Errorf("unknown chaos suite %q (have %v)", cfg.Suite, fault.SuiteNames())}
	}

	// Invert the Poisson arrival math: span scales as 1/Load, so the load
	// that stretches the flow budget across the horizon is span(load=1)
	// divided by the horizon.
	base.Load = 1
	load := base.normalize().poisson(t.Hosts()).ExpectedSpan() / float64(cfg.Horizon)
	if load > 0.9 {
		return rep, &FieldError{Field: "Horizon", Err: fmt.Errorf("%v needs load %.2f > 0.9; raise Horizon or lower Flows", cfg.Horizon, load)}
	}

	// Chaos cycles tile the horizon, truncated to the propagation-delay
	// grid so transitions land on safe-window boundaries; the first cycle
	// starts one grid step in.
	cycle := cfg.Horizon / sim.Duration(cfg.Cycles) / prop * prop
	if cycle < 24*prop {
		return rep, &FieldError{Field: "Cycles", Err: fmt.Errorf("cycle %v too short for the suite's subdivisions; raise Horizon or lower Cycles", cycle)}
	}

	w := NewWorker()
	for seg := 0; seg < cfg.Segments; seg++ {
		segSeed := sim.DeriveSeed(cfg.Seed, "endurance/segment", seg)
		s := base
		s.Name = fmt.Sprintf("endurance %s seg=%d", cfg.Suite, seg)
		s.Load, s.Seed = load, segSeed
		s.Faults = suite.Build(t, sim.Time(prop), cycle, cfg.Cycles, segSeed).MustCompile(t)
		r := w.Run(s)
		if err := r.CheckConservation(); err != nil {
			return rep, fmt.Errorf("segment %d: %w", seg, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.Segments = append(rep.Segments, EnduranceSegment{Result: r, HeapLive: ms.HeapAlloc, PoolCap: w.net.PoolCap()})
		rep.SimTime += sim.Duration(r.SimTime)
		rep.Rebuilds = w.Rebuilds()
		if cfg.Log != nil {
			cfg.Log(fmt.Sprintf("segment %d/%d: simtime=%.2fs events=%d flows=%d incomplete=%d faultdrops=%d heap=%.1fMB",
				seg+1, cfg.Segments, sim.Duration(r.SimTime).Seconds(), r.Events,
				r.Summary.Flows, r.Summary.Incomplete, r.Census.FaultDrops,
				float64(ms.HeapAlloc)/1e6))
		}
	}
	return rep, nil
}
