package exp

// The kv workload: when a scenario sets KV.Requests, the run deploys the
// replicated key-value service (internal/kv) over the fabric next to any
// flows and drives open-loop client load while the scenario's fault
// schedule executes. It follows the flows' windowed-execution contract:
// issue events fire under ranks reserved at setup on the owning hosts'
// clocks (each client keeps only its next one queued), resolutions count
// into a sim.Completion whose horizon joins the flows', and all
// per-client state merges in client-index order — so kv runs are
// bit-identical across lookahead widths like every other scenario. They
// run serial: Scenario.normalize sets Shards to 1 for them.

import (
	"fmt"
	"strings"

	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/verbs"
)

// newKV builds the scenario's kv service on net; Start schedules it. Its
// QPs take flow IDs 1…idBase — two per client and two per follower, kv's
// layout — so the run numbers its flows after them.
func newKV(s Scenario, net *fabric.Network, top topo.Topology, bdpCap int) (svc *kv.Service, idBase int) {
	o := s.KV // normalized by Scenario.normalize, checked by Scenario.Validate
	hosts := make([]packet.NodeID, top.Hosts())
	for i := range hosts {
		hosts[i] = packet.NodeID(i)
	}
	hostsPerPod := (s.Arity / 2) * (s.Arity / 2)
	pl := kv.Place(hosts, hostsPerPod, o.Followers, o.Clients)

	qcfg := verbs.Config{
		MTU:      s.MTU,
		BDPCap:   bdpCap,
		RTOLow:   s.RTOLow,
		RTOHigh:  s.RTOHigh,
		RTOLowN:  s.RTOLowN,
		RNRDelay: 20 * sim.Microsecond,
		// The RoCE baseline runs go-back-N recovery with the classic
		// single conservative timeout; IRN keeps the two-tier RTO (§3).
		GoBackN: s.Transport == TransportRoCE,
	}
	if qcfg.GoBackN {
		qcfg.RTOLow = s.RTOHigh
	}
	return kv.New(net, pl, qcfg, o, s.Seed), 2 * (o.Clients + o.Followers)
}

// kvChaosSeed fixes the chaos-suite link sampling across the FigureKV
// pairs so both transports see the same failure sequence.
const kvChaosSeed = 9001

// FigureKV is the replicated-KV availability experiment: a leader, two
// followers and six clients run the RPC+replication service over the
// fault fabric while chaos hits the leader's pod, IRN against RoCE+PFC
// go-back-N. Three failure regimes, covering both RPC wire variants:
//
//   - a flap storm on pod-0 (leader) uplinks, send/recv RPC — the
//     headline availability/commit-latency comparison;
//   - the rolling-drain suite across pods, write-with-imm RPC;
//   - a sustained pod-0 uplink blackout long enough to exhaust client
//     retry budgets and the leader's replication quorum — the graceful-
//     degradation point (read-only service, give-ups).
//
// Requests scale with the experiment Scale so the preset rides the fig*
// determinism/differential sweeps at test scales.
func FigureKV(sc Scale) Experiment {
	const kvArity = 6
	t := topo.NewFatTree(kvArity)
	requests := sc.Flows / 10
	if requests < 24 {
		requests = 24
	}
	if requests > 400 {
		requests = 400
	}
	// The open-loop issue span at 6 clients and the default 50 µs mean
	// gap, used to size the chaos suite's cycle count.
	span := sim.Duration(requests/6) * 50 * sim.Microsecond
	cycles := int(span / (96 * sim.Microsecond))
	if cycles < 2 {
		cycles = 2
	}
	if cycles > 24 {
		cycles = 24
	}

	// Flap storm pinned to the leader's uplinks: 48 µs storm/recover
	// phases (every subdivision a multiple of the 2 µs lookahead, like
	// figchaos), three 6 µs blinks per storm on three sampled uplinks.
	storm := fault.NewSchedule("kv-flap-leader").At(sim.Time(100 * sim.Microsecond))
	for c := 0; c < cycles; c++ {
		storm.Phase(fmt.Sprintf("storm%d", c), 48*sim.Microsecond,
			fault.Blink(fault.Sample(fault.Uplinks(0), 3, kvChaosSeed+uint64(c)), 3, 6*sim.Microsecond))
		storm.Quiet(fmt.Sprintf("recover%d", c), 48*sim.Microsecond)
	}

	drainSuite, ok := fault.SuiteByName("rolling-drain")
	if !ok {
		panic("exp: chaos suite \"rolling-drain\" missing")
	}
	drain := drainSuite.Build(t, sim.Time(100*sim.Microsecond), 48*sim.Microsecond, cycles, kvChaosSeed)

	// Blackout: pod-0 uplinks hard down for 1.2 ms from t=60 µs — longer
	// than any client's full retry budget and far past the leader's
	// quorum timeout, so cross-pod clients exhaust their retries and the
	// leader degrades to read-only for same-pod writers.
	blackout := fault.NewSchedule("kv-blackout").At(sim.Time(60*sim.Microsecond)).
		Phase("blackout", 1200*sim.Microsecond, fault.Down(fault.Uplinks(0))).
		Quiet("recover", 400*sim.Microsecond)

	mk := func(name string, sched *fault.Schedule, mode kv.Mode, mut func(*Scenario)) Scenario {
		return named(Scenario{
			Arity: kvArity,
			KV: kv.Options{
				Requests: requests,
				Mode:     mode,
				Phases:   sched.Windows(),
			},
			Faults: sched.MustCompile(t),
			// Identical transport config across each pair (see FigureFlap).
			RoCETimeouts: true,
		}, name, mut)
	}
	roce := func(s *Scenario) { s.Transport = TransportRoCE; s.PFC = true }
	irn := func(s *Scenario) { s.Transport = TransportIRN }
	return Experiment{
		ID:          "figkv",
		Description: fmt.Sprintf("Replicated KV availability under chaos (leader flap-storm, rolling drain, blackout) — IRN vs RoCE+PFC, %d requests", requests),
		Kind:        ReportKV,
		Scenarios: []Scenario{
			mk("RoCE+PFC kv flap-leader send", storm, kv.ModeSend, roce),
			mk("IRN kv flap-leader send", storm, kv.ModeSend, irn),
			mk("RoCE+PFC kv rolling-drain writeimm", drain, kv.ModeWriteImm, roce),
			mk("IRN kv rolling-drain writeimm", drain, kv.ModeWriteImm, irn),
			mk("RoCE+PFC kv blackout send", blackout, kv.ModeSend, roce),
			mk("IRN kv blackout send", blackout, kv.ModeSend, irn),
		},
	}
}

// renderKV prints the kv availability report: per scenario the headline
// availability, commit-latency quantiles and robustness counters, then
// the per-phase availability series, and an IRN-vs-RoCE pairing summary.
func renderKV(b *strings.Builder, results []Result) {
	fmt.Fprintf(b, "%-42s %8s %14s %14s %8s %8s %8s %9s %9s\n",
		"scenario", "avail", "commit_p50_ms", "commit_p99_ms",
		"retries", "giveups", "rdonly", "degraded", "timeouts")
	for _, r := range results {
		k := r.KV
		if k == nil {
			continue
		}
		fmt.Fprintf(b, "%-42s %8.4f %14.4f %14.4f %8d %8d %8d %9d %9d\n",
			r.Name, k.Availability, k.CommitP50.Millis(), k.CommitP99.Millis(),
			k.Retries, k.GiveUps, k.ReadOnly, k.DegradedEnters, k.Timeouts)
	}
	// Per-phase availability, one block per scenario.
	for _, r := range results {
		k := r.KV
		if k == nil || len(k.Phases) == 0 {
			continue
		}
		fmt.Fprintf(b, "phases %-35s", r.Name)
		for _, p := range k.Phases {
			if p.Issued == 0 {
				continue
			}
			fmt.Fprintf(b, " %s=%.3f(%d)", p.Name, float64(p.WithinSLO)/float64(p.Issued), p.Issued)
		}
		fmt.Fprintln(b)
	}
	// Pair IRN against RoCE rows that share a fault schedule.
	type side struct {
		avail float64
		p99   float64
		ok    bool
	}
	pairKey := func(r Result) string {
		name := r.Name
		name = strings.TrimPrefix(name, "RoCE+PFC ")
		name = strings.TrimPrefix(name, "IRN ")
		return name
	}
	acc := map[string][2]side{}
	var order []string
	for _, r := range results {
		if r.KV == nil {
			continue
		}
		key := pairKey(r)
		pair, seen := acc[key]
		if !seen {
			order = append(order, key)
		}
		i := 0 // RoCE side
		if r.Scenario.Transport == TransportIRN {
			i = 1
		}
		pair[i] = side{avail: r.KV.Availability, p99: r.KV.CommitP99.Millis(), ok: true}
		acc[key] = pair
	}
	for _, key := range order {
		pair := acc[key]
		if !pair[0].ok || !pair[1].ok {
			continue
		}
		fmt.Fprintf(b, "pair %-30s avail IRN %.4f vs RoCE %.4f; commit p99 IRN %.4fms vs RoCE %.4fms\n",
			key, pair[1].avail, pair[0].avail, pair[1].p99, pair[0].p99)
	}
}
