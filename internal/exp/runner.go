package exp

import (
	"math"
	"runtime"
	"sync"

	"github.com/irnsim/irn/internal/sim"
)

// FleetConfig shapes a fleet run: how wide to shard and how many trials
// each scenario repeats.
type FleetConfig struct {
	// Parallel is the number of worker goroutines executing scenarios.
	// Zero or negative selects GOMAXPROCS; when scenarios shard
	// intra-run (Scenario.Shards), RunFleet caps the effective width so
	// workers × shards stays within GOMAXPROCS. Parallelism never
	// affects results: every scenario/trial runs on its own engine group
	// with its own derived seed, so the output is bit-identical at any
	// width.
	Parallel int
	// Trials repeats every scenario this many times under different
	// derived seeds (zero or negative means one trial). With a single
	// trial and a zero BaseSeed the scenarios run with their preset seeds,
	// byte-for-byte compatible with the serial RunExperiment path.
	Trials int
	// BaseSeed, when non-zero (or whenever Trials > 1), reseeds every
	// scenario/trial pair via sim.DeriveSeed(BaseSeed, scenario name,
	// trial) so sweeps are reproducible end-to-end from one number.
	BaseSeed uint64
}

func (c FleetConfig) normalize() FleetConfig {
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.Trials <= 0 {
		c.Trials = 1
	}
	return c
}

// reseed reports whether the fleet derives per-trial seeds instead of
// running scenarios with their preset ones.
func (c FleetConfig) reseed() bool { return c.Trials > 1 || c.BaseSeed != 0 }

// FleetResult is the outcome of one fleet run: every trial of every
// scenario, in deterministic (scenario, trial) order.
type FleetResult struct {
	ExpID  string
	Config FleetConfig
	// Trials holds one Result slice per scenario, indexed like
	// Experiment.Scenarios; Trials[i][t] is scenario i, trial t.
	Trials [][]Result
}

// First returns trial 0 of every scenario — the slice shape the
// single-run renderers and trend assertions consume.
func (fr FleetResult) First() []Result {
	out := make([]Result, 0, len(fr.Trials))
	for _, ts := range fr.Trials {
		if len(ts) > 0 {
			out = append(out, ts[0])
		}
	}
	return out
}

// maxShards returns the widest intra-run sharding any scenario of the
// experiment will use.
func maxShards(e Experiment) int {
	m := 1
	for i := range e.Scenarios {
		s := e.Scenarios[i].normalize()
		if s.Shards > m {
			m = s.Shards
		}
	}
	return m
}

// RunFleet executes every scenario of an experiment Trials times across
// Parallel workers. Scheduling is work-stealing over a flattened
// (scenario, trial) job list, but each job writes to its own slot, so the
// returned structure is independent of worker count and interleaving.
//
// CPU arbitration between the two parallelism axes: each worker runs its
// scenario with that scenario's own Shards-wide engine group, so the
// fleet caps workers at GOMAXPROCS / max-shards (floor, minimum one) —
// workers × shards never oversubscribes the machine. Trial-level
// parallelism is the better deal when the grid is wide (perfect scaling,
// no barriers), so sharding should be reserved for runs whose grid is
// narrower than the core count — the single big figscale run, not a
// 50-point sweep.
func RunFleet(e Experiment, cfg FleetConfig) FleetResult {
	cfg = cfg.normalize()
	if shards := maxShards(e); shards > 1 {
		if limit := runtime.GOMAXPROCS(0) / shards; cfg.Parallel > limit {
			cfg.Parallel = max(1, limit)
		}
	}
	fr := FleetResult{ExpID: e.ID, Config: cfg, Trials: make([][]Result, len(e.Scenarios))}

	type job struct{ scenario, trial int }
	jobs := make([]job, 0, len(e.Scenarios)*cfg.Trials)
	for i := range e.Scenarios {
		fr.Trials[i] = make([]Result, cfg.Trials)
		for t := 0; t < cfg.Trials; t++ {
			jobs = append(jobs, job{i, t})
		}
	}

	workers := cfg.Parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine owns one Worker: its engine (and the
			// timing wheel's block store), packet pool and — across
			// structurally identical jobs, e.g. the trials of one
			// scenario — the entire fabric are reused instead of being
			// rebuilt per job. Reuse is invisible in the results: the
			// reset path is bit-identical to fresh construction.
			wk := NewWorker()
			for j := range ch {
				s := e.Scenarios[j.scenario]
				if cfg.reseed() {
					s.Seed = sim.DeriveSeed(cfg.BaseSeed, s.Name, j.trial)
				}
				fr.Trials[j.scenario][j.trial] = wk.Run(s)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return fr
}

// Stat is a mean with spread over a trial sample: the error bars of the
// aggregated report tables.
type Stat struct {
	Mean   float64
	Stddev float64 // sample standard deviation (n-1)
	CI95   float64 // 95% normal-approximation half-width of the mean
	N      int
}

// NewStat summarizes a sample.
func NewStat(samples []float64) Stat {
	st := Stat{N: len(samples)}
	if st.N == 0 {
		return st
	}
	for _, v := range samples {
		st.Mean += v
	}
	st.Mean /= float64(st.N)
	if st.N > 1 {
		var ss float64
		for _, v := range samples {
			d := v - st.Mean
			ss += d * d
		}
		st.Stddev = math.Sqrt(ss / float64(st.N-1))
		st.CI95 = 1.96 * st.Stddev / math.Sqrt(float64(st.N))
	}
	return st
}

// Aggregate is one scenario's metrics averaged across trials.
type Aggregate struct {
	Name        string
	Trials      int
	AvgSlowdown Stat
	AvgFCTms    Stat
	P99FCTms    Stat
	RCTms       Stat
	Drops       Stat
	Retransmits Stat
	Incomplete  Stat
}

// Aggregates reduces every scenario's trials to mean/stddev/CI rows, in
// scenario order.
func (fr FleetResult) Aggregates() []Aggregate {
	aggs := make([]Aggregate, 0, len(fr.Trials))
	for _, trials := range fr.Trials {
		if len(trials) == 0 {
			continue
		}
		a := Aggregate{Name: trials[0].Name, Trials: len(trials)}
		pick := func(f func(Result) float64) Stat {
			vals := make([]float64, len(trials))
			for i, r := range trials {
				vals[i] = f(r)
			}
			return NewStat(vals)
		}
		a.AvgSlowdown = pick(func(r Result) float64 { return r.AvgSlowdown })
		a.AvgFCTms = pick(func(r Result) float64 { return r.AvgFCT.Millis() })
		a.P99FCTms = pick(func(r Result) float64 { return r.TailFCT.Millis() })
		a.RCTms = pick(func(r Result) float64 { return r.RCT.Millis() })
		a.Drops = pick(func(r Result) float64 { return float64(r.Net.Drops) })
		a.Retransmits = pick(func(r Result) float64 { return float64(r.Retransmits) })
		a.Incomplete = pick(func(r Result) float64 { return float64(r.Summary.Incomplete) })
		aggs = append(aggs, a)
	}
	return aggs
}
