// Command experiments reproduces every table and figure of the paper's
// evaluation (§4 and Appendix A): it runs the named experiment presets
// through the fleet runner and prints the same rows and series the paper
// reports.
//
//	experiments                        # the full suite, GOMAXPROCS-wide
//	experiments -run fig1,fig7         # selected experiments
//	experiments -parallel 8 -trials 5  # 5 seeds per scenario, 8 workers
//	experiments -seed 42 -out r.json   # reseeded sweep persisted as JSON
//	experiments -diff old.json         # compare against a previous run;
//	                                   # exits 1 on any difference
//	experiments -flows 10000           # closer to paper-scale (slower)
//	experiments -run figloss,figflap   # fault-injection robustness sweeps
//	experiments -run figchaos          # chaos-suite robustness preset
//	experiments -run endurance         # minutes-long chaos soak with
//	                                   # invariant checks each segment
//	experiments -run fig1 -fault-loss 0.001
//	                                   # overlay 0.1% random loss on fig1
//	experiments -run figscale          # k=10 fat-tree scale-up (1024 flows)
//	experiments -run figscale -shards 4
//	                                   # shard that one run across 4 cores
//	experiments -run figdc -flows 100000
//	                                   # datacenter scale: k=16, 100k flows
//	                                   # (streaming collectors keep metric
//	                                   # memory O(hosts), not O(flows))
//	experiments -cpuprofile cpu.prof   # pprof the suite (go tool pprof)
//	experiments -list                  # enumerate experiment ids
//
// Results persisted with -out are keyed by experiment id + scenario label
// + seed; re-running with the same -out merges into the existing file, so
// a suite can be accumulated across invocations (or machines) and
// compared across code versions with -diff.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/prof"
	"github.com/irnsim/irn/internal/sim"
)

func main() {
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment ids (default: all)")
		flows    = flag.Int("flows", 4000, "Poisson flows per run (higher = closer to steady state)")
		incast   = flag.Int("incast-bytes", 15_000_000, "incast transfer size in bytes")
		reps     = flag.Int("incast-reps", 3, "incast repetitions per fan-in")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent scenario workers")
		trials   = flag.Int("trials", 1, "trials per scenario (derived seeds; >1 reports mean±stddev)")
		shards   = flag.Int("shards", 1, "shard each fault-free flow run across this many cores (faulted and KV scenarios run serial; fleet caps workers x shards at GOMAXPROCS; results bit-identical)")
		seed     = flag.Uint64("seed", 0, "base seed for derived trial seeds (0 = preset seeds when -trials=1)")
		out      = flag.String("out", "", "persist results as JSON (merging into an existing file)")
		diffPath = flag.String("diff", "", "diff results against a previously saved JSON file")
		list     = flag.Bool("list", false, "list experiment ids and exit")

		faultLoss    = flag.Float64("fault-loss", 0, "overlay a per-link random loss rate on every scenario")
		faultCorrupt = flag.Float64("fault-corrupt", 0, "overlay a per-link corruption rate on every scenario")

		chaosSuite = flag.String("chaos", "rolling", "endurance chaos suite: "+strings.Join(fault.SuiteNames(), " | "))
		segments   = flag.Int("segments", 6, "endurance soak segments")
		horizonMs  = flag.Int("horizon-ms", 20_000, "endurance simulated horizon per segment in ms")
		enduranceK = flag.Int("endurance-arity", 10, "endurance fat-tree arity")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the suite run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()

	scale := exp.Scale{Flows: *flows, IncastBytes: *incast, IncastReps: *reps}
	all := exp.All(scale)

	if *list {
		for _, e := range all {
			fmt.Printf("%-14s %s (%d scenarios)\n", e.ID, e.Description, len(e.Scenarios))
		}
		fmt.Printf("%-14s long-horizon chaos soak (-chaos, -segments, -horizon-ms, -endurance-arity)\n", "endurance")
		return
	}

	// The endurance soak is a harness of its own (segmented worker reuse,
	// invariant checks, heap sampling), not a preset experiment; dispatch
	// it before preset lookup. It composes with preset ids: the soak runs
	// after the selected experiments.
	runEndurance := false
	selected := all
	if *runIDs != "" {
		selected = nil
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			if id == "endurance" {
				runEndurance = true
				continue
			}
			e, ok := exp.ByID(id, scale)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	// Overlay the CLI's fault rates (ad-hoc robustness runs of any figure)
	// and sharding on every selected scenario, then check it as it will
	// run, before any runs. A scenario that sets a fault axis itself (the
	// figloss sweep) keeps it; faulted and KV ones normalize to one shard.
	for _, e := range selected {
		for si := range e.Scenarios {
			s := &e.Scenarios[si]
			s.Faults.LossRate = cmp.Or(s.Faults.LossRate, *faultLoss)
			s.Faults.CorruptRate = cmp.Or(s.Faults.CorruptRate, *faultCorrupt)
			if *shards > 1 {
				s.Shards = *shards
			}
			if err := s.Validate(); err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s, scenario %q: %v\n", e.ID, s.Name, err)
				os.Exit(2)
			}
		}
	}

	store := exp.NewStore()
	cfg := exp.FleetConfig{Parallel: *parallel, Trials: *trials, BaseSeed: *seed}

	stopProfiles := prof.Start(*cpuprofile, *memprofile)
	suiteStart := time.Now()
	for _, e := range selected {
		start := time.Now()
		fr := exp.RunFleet(e, cfg)
		store.PutFleet(fr)
		if *trials > 1 {
			fmt.Print(exp.RenderAggregates(e, fr.Aggregates()))
		} else {
			fmt.Print(exp.Render(e, fr.First()))
		}
		fmt.Printf("(%d scenarios x %d trials in %v)\n\n",
			len(e.Scenarios), fr.Config.Trials, time.Since(start).Round(time.Millisecond))
	}
	if runEndurance {
		ecfg := exp.EnduranceConfig{
			Arity:    *enduranceK,
			Segments: *segments,
			Horizon:  sim.Duration(*horizonMs) * sim.Millisecond,
			Suite:    *chaosSuite,
			Seed:     *seed,
			Log:      func(line string) { fmt.Println("  " + line) },
		}
		fmt.Printf("endurance soak: k=%d suite=%s %d segments x %dms\n",
			ecfg.Arity, ecfg.Suite, ecfg.Segments, *horizonMs)
		start := time.Now()
		rep, err := exp.RunEndurance(ecfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "endurance soak failed: %v\n", err)
			if errors.As(err, new(*exp.FieldError)) {
				os.Exit(2) // a bad flag, found before the soak built anything
			}
			os.Exit(1)
		}
		fmt.Printf("soak held: %.1fs of simulated time, %d segments, %d fabric build(s), invariants clean (%v)\n\n",
			rep.SimTime.Seconds(), len(rep.Segments), rep.Rebuilds, time.Since(start).Round(time.Millisecond))
	}
	stopProfiles()
	fmt.Printf("suite completed in %v\n", time.Since(suiteStart).Round(time.Second))

	// Persist before diffing: a bad -diff file must not cost the results
	// of the sweep that just ran.
	if *out != "" {
		n, err := store.SaveMerged(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "persisting %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("persisted %d rows to %s\n", n, *out)
	}

	if *diffPath != "" {
		prev, err := exp.LoadStore(*diffPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", *diffPath, err)
			os.Exit(1)
		}
		// Restrict the baseline to rows this invocation produced, so
		// diffing a partial rerun against a full saved suite compares
		// only what was actually re-run.
		diffs := exp.Diff(prev.Restrict(store), store)
		if len(diffs) == 0 {
			fmt.Printf("no differences vs %s\n", *diffPath)
		} else {
			fmt.Printf("%d differences vs %s:\n", len(diffs), *diffPath)
			for _, d := range diffs {
				fmt.Println("  " + d)
			}
			os.Exit(1)
		}
	}
}
