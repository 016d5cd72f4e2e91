// Command irnsim runs a single simulation scenario through the fleet
// runner and prints the paper's metrics (§4.1: average slowdown, average
// FCT, 99%ile FCT). With -trials > 1 it repeats the scenario under
// derived seeds across -parallel workers and reports mean ± stddev.
//
// Examples:
//
//	irnsim -transport irn
//	irnsim -transport roce -pfc -flows 4000
//	irnsim -transport irn -cc dcqcn -load 0.9 -arity 8
//	irnsim -transport irn -incast 30
//	irnsim -transport irn -recovery gbn           # Figure 7 ablation
//	irnsim -trials 5 -parallel 5 -out runs.json   # seed sweep, persisted
//	irnsim -fault-loss 0.001                      # 0.1% random per-link loss
//	irnsim -flap-links 8 -flap-down-us 400        # transient link failures
//	irnsim -degrade-links 8 -degrade-factor 0.25  # links at quarter speed
//	irnsim -chaos rolling                         # chaos suite
//	irnsim -arity 10 -flows 1024 -shards 4        # one fault-free run, 4 cores
//	irnsim -kv 200                                # replicated KV service load
//	irnsim -kv 200 -kv-mode writeimm -chaos flap-storm
//	                                              # KV availability under chaos
//	irnsim -kv 200 -flows 200 -load 0.5           # KV next to background flows
//	irnsim -cpuprofile cpu.prof -memprofile mem.prof
//	                                              # pprof the run (go tool pprof)
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

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/prof"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

func main() {
	var (
		transport = flag.String("transport", "irn", "transport: irn | roce | iwarp")
		ccName    = flag.String("cc", "none", "congestion control: none | timely | dcqcn | aimd | dctcp")
		pfc       = flag.Bool("pfc", false, "enable priority flow control")
		arity     = flag.Int("arity", 6, "fat-tree arity (6=54 hosts, 8=128, 10=250)")
		gbps      = flag.Float64("gbps", 40, "link bandwidth in Gbps")
		load      = flag.Float64("load", 0.7, "target link utilization")
		flows     = flag.Int("flows", 2000, "number of flows")
		buffer    = flag.Int("buffer", 0, "per-port buffer bytes (0 = 2xBDP)")
		seed      = flag.Uint64("seed", 1, "random seed (base seed when -trials > 1)")
		workload  = flag.String("workload", "heavy", "workload: heavy | uniform | websearch | hadoop")
		incast    = flag.Int("incast", 0, "incast fan-in M (0 = Poisson workload)")
		kvReqs    = flag.Int("kv", 0, "run the replicated KV service with this many requests (0 = none); flows run next to it only if -flows is given")
		kvMode    = flag.String("kv-mode", "send", "KV RPC wire variant: send | writeimm")
		recovery  = flag.String("recovery", "sack", "IRN loss recovery: sack | gbn | nosack")
		noBDPFC   = flag.Bool("no-bdpfc", false, "disable IRN's BDP-FC")
		overheads = flag.Bool("worst-overheads", false, "model the §6.3 worst-case overheads")
		trials    = flag.Int("trials", 1, "repeat the scenario under derived seeds")
		shards    = flag.Int("shards", 1, "split a fault-free flow run across this many cores (bit-identical results; faulted and KV runs are serial)")
		shardInfo = flag.Bool("shard-stats", false, "print the windowed runtime's shard report (barriers, windows, wait time)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent trial workers")
		out       = flag.String("out", "", "persist results as JSON (merging into an existing file)")

		faultLoss     = flag.Float64("fault-loss", 0, "per-link random loss rate (0-1)")
		faultCorrupt  = flag.Float64("fault-corrupt", 0, "per-link corruption rate (0-1)")
		flapLinks     = flag.Int("flap-links", 0, "number of fabric links that flap")
		flapDownUs    = flag.Int("flap-down-us", 400, "flap down time in µs")
		flapEveryUs   = flag.Int("flap-every-us", 800, "flap period in µs")
		flapCount     = flag.Int("flap-count", 3, "flaps per chosen link")
		degradeLinks  = flag.Int("degrade-links", 0, "number of fabric links running degraded")
		degradeFactor = flag.Float64("degrade-factor", 0.25, "degraded links' bandwidth fraction (0-1]")
		chaos         = flag.String("chaos", "", "chaos suite to run under: "+strings.Join(fault.SuiteNames(), " | "))
		chaosCycleUs  = flag.Int("chaos-cycle-us", 400, "chaos cycle length in µs")
		chaosCycles   = flag.Int("chaos-cycles", 6, "chaos cycles")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()

	s := exp.Scenario{
		Arity:       *arity,
		Shards:      *shards,
		Gbps:        *gbps,
		Load:        *load,
		NumFlows:    *flows,
		BufferBytes: *buffer,
		PFC:         *pfc,
		Seed:        *seed,
		IncastM:     *incast,
		Faults:      fault.Spec{LossRate: *faultLoss, CorruptRate: *faultCorrupt},
		NoBDPFC:     *noBDPFC,
	}
	s.Transport = choose("transport", *transport, map[string]exp.Transport{
		"irn": exp.TransportIRN, "roce": exp.TransportRoCE, "iwarp": exp.TransportTCP, "tcp": exp.TransportTCP})
	s.CC = choose("cc", *ccName, map[string]exp.CCKind{
		"none": exp.CCNone, "timely": exp.CCTimely, "dcqcn": exp.CCDCQCN, "aimd": exp.CCAIMD, "dctcp": exp.CCDCTCP})
	s.Workload = choose("workload", *workload, map[string]exp.WorkloadKind{"heavy": exp.WorkloadHeavyTailed,
		"uniform": exp.WorkloadUniform, "websearch": exp.WorkloadWebSearch, "hadoop": exp.WorkloadHadoop})
	s.Recovery = choose("recovery", *recovery, map[string]core.RecoveryMode{
		"sack": core.RecoverySACK, "gbn": core.RecoveryGoBackN, "nosack": core.RecoveryNoSACK})
	if *kvReqs != 0 {
		s.KV.Requests = *kvReqs
		// Background flows join the service only when asked for by name:
		// -flows' default is the flow workload's size, not a load for KV.
		flowsSet := false
		flag.Visit(func(f *flag.Flag) { flowsSet = flowsSet || f.Name == "flows" })
		if !flowsSet {
			s.NumFlows = 0
		}
		s.KV.Mode = choose("kv-mode", *kvMode, map[string]kv.Mode{"send": kv.ModeSend, "writeimm": kv.ModeWriteImm})
	}
	if *overheads {
		s.RetxFetchDelay = 2 * sim.Microsecond
		s.ExtraHeader = 16
	}

	// Flag values the scenario would silently read as something else: a
	// Scenario takes arity 0 for its default, and a fault flag that builds
	// no fault would run fault-free under a name that says otherwise.
	switch {
	case *arity == 0:
		usage("-arity 0: would run on the default arity-6 fabric")
	case *flapLinks < 0 || *degradeLinks < 0:
		usage("-flap-links %d, -degrade-links %d: a negative link count builds no fault", *flapLinks, *degradeLinks)
	case *flapLinks > 0 && *flapCount < 1:
		usage("-flap-count %d: builds no flap", *flapCount)
	case *chaos != "" && *chaosCycles < 1:
		usage("-chaos-cycles %d: builds no chaos cycle", *chaosCycles)
	}

	// The link-fault flags sample links from the fabric, so its shape is
	// checked before they build one, and the whole scenario after.
	if *chaos != "" || *flapLinks > 0 || *degradeLinks > 0 {
		validate(s)
		t := topo.NewFatTree(*arity)
		if *chaos != "" {
			suite, ok := fault.SuiteByName(*chaos)
			if !ok {
				usage("unknown chaos suite %q (have %s)", *chaos, strings.Join(fault.SuiteNames(), ", "))
			}
			sched := suite.Build(t, sim.Time(100*sim.Microsecond),
				sim.Duration(*chaosCycleUs)*sim.Microsecond, *chaosCycles, *seed)
			spec, err := sched.Compile(t)
			if err != nil {
				usage("-chaos %s: %v", *chaos, err)
			}
			// Keep any -fault-loss/-fault-corrupt base rates underneath the
			// suite's phases.
			spec.LossRate, spec.CorruptRate = s.Faults.LossRate, s.Faults.CorruptRate
			s.Faults = spec
			// KV runs report per-phase availability against the suite's windows.
			if s.KV.Requests > 0 {
				s.KV.Phases = sched.Windows()
			}
		}
		if *flapLinks > 0 {
			s.Faults.Flaps = fault.PeriodicFlaps(t, *flapLinks,
				sim.Time(100*sim.Microsecond),
				sim.Duration(*flapEveryUs)*sim.Microsecond,
				sim.Duration(*flapDownUs)*sim.Microsecond,
				*flapCount, *seed)
		}
		if *degradeLinks > 0 {
			s.Faults.Degrades = fault.DegradeLinks(t, *degradeLinks, 0, 0, *degradeFactor, *seed)
		}
	}
	validate(s)
	if *shards > 1 && (s.KV.Requests > 0 || s.Faults.Enabled()) {
		usage("-shards > 1 applies only to fault-free flow runs: KV and fault-injected runs are serial")
	}

	// Persisted rows are keyed partly by name; describe the scenario
	// rather than labelling every run "cli".
	s.Name = *transport
	if *ccName != "none" {
		s.Name += "+" + *ccName
	}
	if *pfc {
		s.Name += "+pfc"
	}
	if *incast > 0 {
		s.Name += fmt.Sprintf(" incast M=%d", *incast)
	}
	if *kvReqs > 0 {
		s.Name += fmt.Sprintf(" kv[%s x%d]", *kvMode, *kvReqs)
	}
	if *chaos != "" {
		s.Name += fmt.Sprintf(" chaos[%s x%d]", *chaos, *chaosCycles)
	} else if s.Faults.Enabled() {
		s.Name += fmt.Sprintf(" faults[loss=%g corrupt=%g flaps=%d degraded=%d]",
			*faultLoss, *faultCorrupt, *flapLinks, *degradeLinks)
	}

	e := exp.Experiment{ID: "irnsim", Description: "single-scenario CLI run", Scenarios: []exp.Scenario{s}}
	cfg := exp.FleetConfig{Parallel: *parallel, Trials: *trials}
	if *trials > 1 {
		cfg.BaseSeed = *seed
	}

	stopProfiles := prof.Start(*cpuprofile, *memprofile)
	start := time.Now()
	fr := exp.RunFleet(e, cfg)
	wall := time.Since(start)
	stopProfiles()

	fmt.Printf("transport=%s cc=%s pfc=%v arity=%d gbps=%.0f load=%.2f flows=%d seed=%d trials=%d\n",
		*transport, *ccName, *pfc, *arity, *gbps, *load, s.NumFlows, *seed, fr.Config.Trials)

	r := fr.Trials[0][0]
	if *trials > 1 {
		a := fr.Aggregates()[0]
		fmt.Printf("avg_slowdown   %10.2f ± %.2f\n", a.AvgSlowdown.Mean, a.AvgSlowdown.Stddev)
		fmt.Printf("avg_fct_ms     %10.4f ± %.4f\n", a.AvgFCTms.Mean, a.AvgFCTms.Stddev)
		fmt.Printf("p99_fct_ms     %10.4f ± %.4f\n", a.P99FCTms.Mean, a.P99FCTms.Stddev)
		if *incast > 0 {
			fmt.Printf("incast_rct_ms  %10.3f ± %.3f\n", a.RCTms.Mean, a.RCTms.Stddev)
		}
		fmt.Printf("drops          %10.0f ± %.0f\n", a.Drops.Mean, a.Drops.Stddev)
		fmt.Printf("retransmits    %10.0f ± %.0f\n", a.Retransmits.Mean, a.Retransmits.Stddev)
	} else {
		fmt.Printf("avg_slowdown   %10.2f\n", r.AvgSlowdown)
		fmt.Printf("avg_fct_ms     %10.4f\n", r.AvgFCT.Millis())
		fmt.Printf("p99_fct_ms     %10.4f\n", r.TailFCT.Millis())
		if len(r.SinglePktCDF) == 4 {
			fmt.Printf("1pkt_tail_ms   p90=%.4f p95=%.4f p99=%.4f p99.9=%.4f\n",
				r.SinglePktCDF[0].Latency.Millis(), r.SinglePktCDF[1].Latency.Millis(),
				r.SinglePktCDF[2].Latency.Millis(), r.SinglePktCDF[3].Latency.Millis())
		}
		if *incast > 0 {
			fmt.Printf("incast_rct_ms  %10.3f\n", r.RCT.Millis())
		}
		fmt.Printf("flows          %d completed, %d incomplete\n", r.Summary.Flows, r.Summary.Incomplete)
		fmt.Printf("fabric         drops=%d pauses=%d ecn_marked=%d\n", r.Net.Drops, r.Net.PauseFrames, r.Net.ECNMarked)
		if r.Net.FaultDrops+r.Net.Corrupted > 0 {
			fmt.Printf("faults         lost=%d corrupted=%d\n", r.Net.FaultDrops, r.Net.Corrupted)
		}
		fmt.Printf("transport      retransmits=%d timeouts=%d\n", r.Retransmits, r.Timeouts)
		if k := r.KV; k != nil {
			fmt.Printf("kv             %d/%d resolved, availability=%.4f (SLO %v)\n",
				k.Resolved, k.Issued, k.Availability, kv.SLO)
			fmt.Printf("kv_commit      p50=%v p99=%v (%d Puts committed, %d Gets)\n",
				k.CommitP50, k.CommitP99, k.Committed, k.GetsOK)
			fmt.Printf("kv_robustness  retries=%d timeouts=%d giveups=%d readonly=%d degraded=%d\n",
				k.Retries, k.Timeouts, k.GiveUps, k.ReadOnly, k.DegradedEnters)
			for _, p := range k.Phases {
				if p.Issued == 0 {
					continue
				}
				fmt.Printf("kv_phase       %-14s avail=%.3f (%d issued)\n",
					p.Name, float64(p.WithinSLO)/float64(p.Issued), p.Issued)
			}
		}
	}

	var events uint64
	for _, trials := range fr.Trials {
		for _, res := range trials {
			events += res.Events
		}
	}
	fmt.Printf("simulator      %d events in %v (%.1fM events/s)\n",
		events, wall.Round(time.Millisecond), float64(events)/wall.Seconds()/1e6)

	if *shardInfo {
		if st := r.ShardStats; st != nil {
			fmt.Printf("windows        lookahead=%v barriers=%d shards=%d\n",
				st.Lookahead, st.Barriers, len(st.Shards))
			for i, sh := range st.Shards {
				fmt.Printf("shard %-2d       windows=%d events=%d drained=%d barrier_wait=%v\n",
					i, sh.Windows, sh.Events, st.Drained[i],
					time.Duration(sh.BarrierWaitNs).Round(time.Microsecond))
			}
		}
	}

	if *out != "" {
		st := exp.NewStore()
		st.PutFleet(fr)
		n, err := st.SaveMerged(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "persisting %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("persisted %d rows to %s\n", n, *out)
	}
}

// usage reports a bad flag value and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// choose returns the table entry a flag's value selects.
func choose[T any](flag, value string, table map[string]T) T {
	v, ok := table[value]
	if !ok {
		usage("unknown -%s %q", flag, value)
	}
	return v
}

// flagOf names the flag that sets each Scenario field Validate can reject.
var flagOf = map[string]string{
	"Arity": "-arity", "IncastM": "-incast", "NumFlows": "-flows", "BufferBytes": "-buffer",
	"Gbps": "-gbps", "Load": "-load", "KV": "-kv", "KV.Requests": "-kv", "CC": "-cc",
	"Faults": "-fault-*/-flap-*/-degrade-*/-chaos",
}

// validate exits 2 naming the flag behind the first field of s that no
// run can take.
func validate(s exp.Scenario) {
	if err := s.Validate(); err != nil {
		if fe := (*exp.FieldError)(nil); errors.As(err, &fe) {
			err = fmt.Errorf("%s: %w", cmp.Or(flagOf[fe.Field], fe.Field), fe.Err)
		}
		usage("%v", err)
	}
}
