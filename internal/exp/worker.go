package exp

import (
	"fmt"

	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/rocev2"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/workload"
)

// runOpts are the test-harness switches of a run. They are not part of a
// Scenario, its store fingerprint, or any public surface; Worker.Run
// always passes the zero value. Only grace changes results: none of the
// others can change a streaming aggregate or the executed-event set — the
// differential, lookahead and barrier-count tests pin exactly that.
type runOpts struct {
	// grace, when set, replaces the grace constant as the run's cut-off
	// past the last flow arrival or kv issue, so a test can strand flows
	// mid-flight.
	grace sim.Duration
	// exact keeps every flow record (O(flows) memory), so the merged
	// collector run returns carries the sort-based reference statistics
	// next to the streaming ones.
	exact bool
	// bareLookahead narrows the conservative windows to the bare
	// link-propagation lookahead instead of the widened propagation +
	// minimum-frame-serialization bound the fabric computes.
	bareLookahead bool
	// fixedWindows disables the adaptive safe-window extension (see
	// sim.RunWindows): every window spans exactly one lookahead past the
	// global minimum, paying a barrier per window through sparse phases.
	fixedWindows bool
}

// collector returns a fresh collector in the run's mode.
func (o runOpts) collector() *metrics.Collector {
	if o.exact {
		return metrics.NewExact()
	}
	return &metrics.Collector{}
}

// cutoff returns how long past the last arrival or issue the run may go.
func (o runOpts) cutoff() sim.Duration {
	if o.grace != 0 {
		return o.grace
	}
	return grace
}

// lookahead returns the safe-window width for a run on net.
func (o runOpts) lookahead(net *fabric.Network) sim.Duration {
	if o.bareLookahead {
		return net.Cfg.Prop
	}
	return net.Lookahead()
}

// Worker runs scenarios on one long-lived engine, reusing simulation
// infrastructure across runs. The engine (and its timing-wheel bucket
// arrays) is reset and reused for every run; the fabric — topology,
// routing tables, VOQ matrices, port wiring — and the packet pool are
// reused whenever the next scenario is structurally identical to the
// previous one (same fabricKey) and rebuilt otherwise. Trials of one
// scenario always share a key, so a trial sweep constructs its fat-tree
// exactly once per worker.
//
// A Worker is single-threaded, like the engine it owns; the fleet runner
// gives each of its goroutines a private Worker. Results are bit-identical
// to fresh construction — the golden-fixture and serial≡parallel tests
// hold across the reuse path.
type Worker struct {
	engs     []*sim.Engine // engs[:shards] drive a run; grown on demand
	net      *fabric.Network
	top      topo.Topology
	key      fabricKey
	used     int // shard engines the cached fabric spans
	built    bool
	rebuilds int // fabrics constructed over the worker's lifetime
}

// Rebuilds reports how many times this worker constructed a fabric from
// scratch. The endurance soak asserts it stays at 1 across segments —
// proof the zero-rebuild reuse path carries the whole run.
func (w *Worker) Rebuilds() int { return w.rebuilds }

// NewWorker returns a Worker with a fresh engine and no cached fabric.
func NewWorker() *Worker { return &Worker{engs: []*sim.Engine{sim.NewEngine()}} }

// engines returns the worker's first n engines, creating any missing
// ones. Engines persist across runs like the fabric does: their timing-
// wheel block stores stay warm.
func (w *Worker) engines(n int) []*sim.Engine {
	for len(w.engs) < n {
		w.engs = append(w.engs, sim.NewEngine())
	}
	return w.engs[:n]
}

// fabricKey is the structural identity of a fabric: every input to its
// construction except the seed and the fault model, which Network.Reset
// re-applies per run. Two scenarios with equal keys run on identical
// topologies and configs.
type fabricKey struct {
	arity, shards int
	cfg           fabric.Config
}

// keyOf extracts the structural identity of a scenario's fabric.
func keyOf(arity, shards int, cfg fabric.Config) fabricKey {
	cfg.Seed, cfg.Faults = 0, nil
	return fabricKey{arity: arity, shards: shards, cfg: cfg}
}

// Run executes a scenario to completion (all flows finished or grace
// period exhausted) and returns its metrics. Package-level Run constructs
// a throwaway Worker; the fleet runner calls Worker.Run to reuse one.
func Run(s Scenario) Result { return NewWorker().Run(s) }

// Run executes a scenario on this worker, reusing the engine always and
// the fabric when the scenario is structurally identical to the previous
// run's.
func (w *Worker) Run(s Scenario) Result {
	res, _ := w.run(s, runOpts{})
	return res
}

// run is Run under the given test-harness switches; it also returns the
// run's merged collector, which retains every record when o.exact is set.
func (w *Worker) run(s Scenario, o runOpts) (Result, *metrics.Collector) {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("exp: scenario %q: %v", s.Name, err))
	}
	s = s.normalize()

	cfg := fabric.Sized(fabric.Gbps(s.Gbps), prop, mtu, s.ExtraHeader)
	cfg.PFC, cfg.Seed, cfg.Spray, cfg.SharedBuffer = s.PFC, s.Seed, s.Spray, s.SharedBuffer
	if s.BufferBytes != 0 {
		cfg.BufferBytes = s.BufferBytes
	}
	if cfg.PFCHeadroom >= cfg.BufferBytes {
		// Tiny-buffer sweeps: keep a sane threshold at half the buffer.
		cfg.PFCHeadroom = cfg.BufferBytes / 2
	}
	scale := s.Gbps / 40.0
	switch s.CC {
	case CCDCQCN:
		cfg.ECN = fabric.ECNConfig{
			Enabled: true,
			KMin:    int(40_000 * scale),
			KMax:    int(160_000 * scale),
			PMax:    0.2,
		}
	case CCDCTCP:
		k := int(80_000 * scale)
		cfg.ECN = fabric.ECNConfig{Enabled: true, KMin: k, KMax: k + 1, PMax: 1.0}
	}

	// Zero-rebuild path: reset the shard engines unconditionally (fault
	// scheduling below needs clean queues); reset the cached fabric under
	// the new seed and fault model when the structure matches, rebuild it
	// otherwise. The requested shard count is part of the structure: a
	// different partitioning is a different port/channel wiring.
	shards := s.Shards
	key := keyOf(s.Arity, shards, cfg)
	reuse := w.built && w.key == key
	top := w.top
	if !reuse {
		top = topo.NewFatTree(s.Arity)
	}
	var faults *fault.Model
	if s.Faults.Enabled() {
		faults = fault.MustNew(s.Faults, len(top.Links()), s.Seed)
	}
	if reuse {
		for _, e := range w.engs[:w.used] {
			e.Reset()
		}
		w.net.Reset(s.Seed, faults)
	} else {
		assign, used := topo.PartitionNodes(top, shards)
		engs := w.engines(used)
		for _, e := range engs {
			e.Reset()
		}
		cfg.Faults = faults
		w.net = fabric.NewPartitioned(engs, assign, top, cfg)
		w.top, w.key, w.used, w.built = top, key, used, true
		w.rebuilds++
	}
	net := w.net
	engines := w.engs[:w.used]
	bdpCap := s.bdpCap()

	var svc *kv.Service
	idBase := 0
	if s.KV.Requests > 0 {
		svc, idBase = newKV(s, net, top, bdpCap)
	}

	// Build the flow list.
	var specs []workload.Spec
	if s.IncastM > 0 {
		specs = workload.Incast(top.Hosts(), s.IncastM, s.IncastBytes, s.Seed)
	}
	incastFlows := len(specs)
	if s.NumFlows > 0 {
		specs = append(specs, workload.Generate(s.poisson(top.Hosts()))...)
	}

	l := &launcher{
		s:           s,
		net:         net,
		bdpCap:      bdpCap,
		minRTT:      sim.Duration(2*top.LongestPathHops()) * (prop + cfg.Rate.Serialize(mtu+packet.DataHeader)),
		idBase:      idBase,
		flows:       make([]transport.Flow, len(specs)),
		cols:        make([]*metrics.Collector, net.Shards()),
		shard:       make([]launcherShard, net.Shards()),
		incastFlows: incastFlows,
	}
	for i := range l.cols {
		l.cols[i] = o.collector()
	}
	l.done.Init(net.Shards(), len(specs), net.WindowSlack())

	for i, spec := range specs {
		l.flows[i] = transport.Flow{
			ID:    packet.FlowID(idBase + i + 1),
			Src:   spec.Src,
			Dst:   spec.Dst,
			Size:  spec.Size,
			Pkts:  transport.NumPackets(spec.Size, mtu),
			Start: spec.Start,
		}
	}
	// Each flow arrives as two launches: the sender attaches on the shard
	// owning the source host, the receiver on the shard owning the
	// destination, each from its host's stream. (The receiver is in place
	// well before the first data packet: data needs at least one
	// propagation delay — the lookahead — to reach the destination.)
	lastArrival := l.stream(top.Hosts())
	net.OnReap(l.reaped)

	// The kv service is deployed after the flows: they draw their clock
	// ranks first, so a flow ranks the same with or without kv in the run.
	// A run carrying both is done when both are, on the later horizon. It
	// is serial, and a single engine never widens a window, so Widen stays
	// the flows' own.
	var lastIssue sim.Time
	done, horizon := l.done.Done, l.done.Horizon
	if svc != nil {
		lastIssue = svc.Start()
		done = func() bool { return l.done.Done() && svc.Done() }
		horizon = func() sim.Time { return max(l.done.Horizon(), svc.LastResolve().Add(net.WindowSlack())) }
	}

	// Conservative windowed execution, serial included: the run always
	// advances through lookahead-bounded safe windows with completion
	// checked at barriers. The Done horizon clamps the run to "last
	// completion plus the canonical window slack", so the set of executed
	// events — and with it every counter below — is identical for every
	// shard count AND every lookahead width up to the slack.
	lookahead := o.lookahead(net)
	var wstats sim.WindowStats
	sim.RunWindows(sim.WindowConfig{
		Engines:      engines,
		Lookahead:    lookahead,
		Deadline:     max(lastArrival, lastIssue).Add(o.cutoff()),
		Drain:        net.DrainAll,
		Done:         done,
		Horizon:      horizon,
		Widen:        l.done.Widen,
		FixedWindows: o.fixedWindows,
		Stats:        &wstats,
	})

	res := Result{
		Name:        s.Name,
		Scenario:    s,
		Net:         net.Stats(),
		Census:      net.Census(),
		InFlight:    net.InFlightPackets(),
		PoolLive:    net.PoolLive(),
		CtrlBacklog: net.CtrlBacklog(),
	}
	for _, e := range engines {
		res.Events += e.Executed()
		if t := e.Now(); t > res.SimTime {
			res.SimTime = t
		}
	}
	res.ShardStats = buildShardStats(net, lookahead, &wstats)
	for i := range l.shard {
		res.Retransmits += l.shard[i].retransmits
		res.Timeouts += l.shard[i].timeouts
	}
	// The incast completes when its last flow does; a flow cut off by the
	// deadline keeps Finish 0.
	for i := range l.flows[:l.incastFlows] {
		res.RCT = max(res.RCT, sim.Duration(l.flows[i].Finish))
	}
	// Completions streamed into per-shard collectors during the run
	// (each written only by the shard owning the flow's destination);
	// merge them in shard order. Every merged aggregate is exact-integer
	// state, so the fold reproduces the serial run bit for bit.
	agg := o.collector()
	for _, c := range l.cols {
		res.MetricsBytes += c.MemFootprint()
		agg.Merge(c)
	}
	// Senders the NICs have not reaped and receivers they have not
	// retired hold counters no shard total has folded yet.
	for i := range l.flows {
		fl := &l.flows[i]
		if !fl.Finished {
			agg.AddIncomplete()
		}
		src, _ := net.NIC(fl.Src).Attached(fl.ID)
		if st := senderStats(src); st != nil {
			res.Retransmits += st.Retransmits
			res.Timeouts += st.Timeouts
		}
		_, sink := net.NIC(fl.Dst).Attached(fl.ID)
		if rcv, ok := sink.(*rocev2.Receiver); ok {
			res.Timeouts += rcv.TimeoutNacks
		}
	}
	res.MetricsBytes += agg.MemFootprint()
	res.Summary = agg.Summarize()
	res.SinglePktCDF = agg.SinglePacketTail([]float64{90, 95, 99, 99.9})
	res.FCTSketch = agg.FCTHistogram()
	if svc != nil {
		retx, tos, _, _ := svc.TransportStats()
		res.Retransmits += retx
		res.Timeouts += tos
		res.KV = svc.Report()
	}
	return res, agg
}
