package main

import (
	"fmt"

	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
	flowgen "github.com/irnsim/irn/internal/workload"
)

// workload is one named input set. Sizes are fixed by simulated work,
// never by time, so every simulated statistic of a run is a pure function
// of (workload, seed).
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Size states the scenario and its reference size at seed 1.
	Size string
	// Ops is the full-size operation count (flows or KV requests) at a
	// seed. A flow workload holds the offered data packets constant across
	// seeds, not the flow count: flow sizes are heavy-tailed, so a fixed
	// count of them differs in work by ±9% from seed to seed.
	Ops func(seed uint64) int
	// KV marks the request workload: operations are requests, not flows,
	// and the traced run records only coarse spans (kv owns its QPs).
	KV bool
	// Lossless marks the workload on which any fabric drop is a violation.
	Lossless bool
	// ShardProbe marks the workload the report-only sharding probe reruns
	// at Shards:2.
	ShardProbe bool
	// Scenario builds the scenario for a seed at ops operations.
	Scenario func(seed uint64, ops int) exp.Scenario
}

// Divisors applied to Ops: the set-up run warms the worker at a tenth of
// the workload, -quick runs a twentieth (package test only).
const (
	setupDivisor = 10
	quickDivisor = 20
)

var workloads = []workload{
	{
		Name: "dc_irn",
		Why:  "k=16 fat-tree, ~3000 Hadoop flows (634k packets) at 60% load, IRN without PFC: working set beyond cache, so fabric per-hop work and per-flow set-up dominate",
		Size: "Scenario{Arity:16, Load:0.6, Workload:Hadoop}, flows offering 633784 data packets; seed 1: 3000 flows, 14.9M events",
		Ops:  offering(633784, 3000, 1024, 0.6, hadoop),

		ShardProbe: true,
		Scenario: func(seed uint64, ops int) exp.Scenario {
			return exp.Scenario{Name: "dc_irn", Arity: 16, NumFlows: ops, Load: 0.6, Workload: exp.WorkloadHadoop, Seed: seed}
		},
	},
	{
		Name:     "dc_roce_pfc",
		Why:      "same k=16 fabric, ~5000 flows (1.09M packets), RoCE go-back-N with PFC: the lossless pause/resume path and rocev2; a core change must not move it",
		Size:     "Scenario{Arity:16, Load:0.6, Workload:Hadoop, Transport:RoCE, PFC:true}, flows offering 1091862 data packets; seed 1: 5000 flows, 13.0M events",
		Ops:      offering(1091862, 5000, 1024, 0.6, hadoop),
		Lossless: true,
		Scenario: func(seed uint64, ops int) exp.Scenario {
			return exp.Scenario{Name: "dc_roce_pfc", Arity: 16, NumFlows: ops, Load: 0.6, Workload: exp.WorkloadHadoop,
				Transport: exp.TransportRoCE, PFC: true, Seed: seed}
		},
	},
	{
		Name: "k6_irn_lossy",
		Why:  "paper default (k=6, 70% load, heavy-tailed, IRN, no PFC), ~8000 flows (1.32M packets): cache-resident fabric, so wheel, timers and SACK loss recovery carry their largest share",
		Size: "Scenario{} (paper defaults), flows offering 1323249 data packets; seed 1: 8000 flows, 30.0M events, 49k drops, 44k retransmits, 2k timeouts",
		Ops:  offering(1323249, 8000, 54, 0.7, heavyTailed),
		Scenario: func(seed uint64, ops int) exp.Scenario {
			return exp.Scenario{Name: "k6_irn_lossy", NumFlows: ops, Seed: seed}
		},
	},
	{
		Name:     "kv_chaos",
		Why:      "100000 write-with-imm KV requests on k=6 under a flap-storm schedule: verbs, kv, fault and timer-heavy sparse phases; touches neither core nor rocev2",
		Size:     "Scenario{Arity:6, KV:{Requests:100000, Mode:WriteImm}, Faults:flap-storm(100us, 400us, 2100 cycles)}; seed 1: 18.6M events, 0.80M data packets",
		Ops:      func(uint64) int { return 100000 },
		KV:       true,
		Scenario: kvChaos,
	},
}

func hadoop() flowgen.SizeDist      { return flowgen.NewHadoop() }
func heavyTailed() flowgen.SizeDist { return flowgen.NewHeavyTailed() }

// offering returns the Ops of a flow workload: the length of the shortest
// prefix of the seed's flow sequence that offers at least pkts data
// packets. pkts is what refFlows flows offer at seed 1, so seed 1 runs
// exactly refFlows flows. hosts, load and dist are the scenario's: the
// sequence generated here is the one exp.Worker.Run generates (a shorter
// NumFlows yields a prefix of the same sequence).
func offering(pkts, refFlows, hosts int, load float64, dist func() flowgen.SizeDist) func(uint64) int {
	return func(seed uint64) int {
		specs := flowgen.Generate(flowgen.PoissonConfig{
			Hosts: hosts, Load: load, RatePsPerByte: int64(fabric.Gbps(40)), MTU: 1000,
			HeaderBytes: packet.DataHeader, NumFlows: 2 * refFlows, Dist: dist(), Seed: seed,
		})
		offered := 0
		for i, s := range specs {
			if offered += transport.NumPackets(s.Size, 1000); offered >= pkts {
				return i + 1
			}
		}
		return len(specs)
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Chaos-schedule geometry of kv_chaos.
const (
	chaosStart = 100 * sim.Microsecond
	chaosCycle = 400 * sim.Microsecond
)

// chaosSchedule builds the flap-storm schedule that spans the open-loop
// issue window of requests requests (six clients, 50 µs mean gap — the kv
// defaults) plus a tail of cycles for the last requests to resolve under.
// At 100000 requests it is 2100 cycles.
func chaosSchedule(t topo.Topology, requests int, seed uint64) *fault.Schedule {
	suite, ok := fault.SuiteByName("flap-storm")
	if !ok {
		panic("benchmark: chaos suite \"flap-storm\" missing")
	}
	span := sim.Duration(requests/6) * 50 * sim.Microsecond
	cycles := int(span/chaosCycle) + 17
	return suite.Build(t, sim.Time(chaosStart), chaosCycle, cycles, seed)
}

func kvChaos(seed uint64, requests int) exp.Scenario {
	t := topo.NewFatTree(6)
	sched := chaosSchedule(t, requests, seed)
	ws := sched.Windows()
	phases := make([]kv.Phase, len(ws))
	for i, w := range ws {
		phases[i] = kv.Phase{Name: w.Name, From: w.From, To: w.To}
	}
	return exp.Scenario{
		Name:   "kv_chaos",
		Arity:  6,
		KV:     kv.Options{Requests: requests, Mode: kv.ModeWriteImm, Phases: phases},
		Faults: sched.MustCompile(t),
		Seed:   seed,
	}
}
