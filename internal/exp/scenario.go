// Package exp is the experiment harness: it instantiates a scenario (the
// paper's default case or any of its §4.4 variations), wires the chosen
// transport and congestion control onto every generated flow, runs the
// simulation, and reports the paper's metrics. Each figure and table of
// the evaluation has a named preset in presets.go.
package exp

import (
	"fmt"

	"github.com/irnsim/irn/internal/cc"
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/rocev2"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/slab"
	"github.com/irnsim/irn/internal/tcpstack"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/workload"
)

// Transport selects the NIC transport under test.
type Transport uint8

// Transports.
const (
	TransportIRN Transport = iota
	TransportRoCE
	TransportTCP // iWARP
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case TransportIRN:
		return "IRN"
	case TransportRoCE:
		return "RoCE"
	case TransportTCP:
		return "iWARP/TCP"
	default:
		return "?"
	}
}

// CCKind selects explicit congestion control.
type CCKind uint8

// Congestion-control kinds.
const (
	CCNone CCKind = iota
	CCTimely
	CCDCQCN
	CCAIMD
	CCDCTCP
)

// String implements fmt.Stringer.
func (c CCKind) String() string {
	switch c {
	case CCNone:
		return "none"
	case CCTimely:
		return "Timely"
	case CCDCQCN:
		return "DCQCN"
	case CCAIMD:
		return "AIMD"
	case CCDCTCP:
		return "DCTCP"
	default:
		return "?"
	}
}

// WorkloadKind selects the flow-size distribution.
type WorkloadKind uint8

// Workload kinds.
const (
	WorkloadHeavyTailed WorkloadKind = iota // §4.1 default
	WorkloadUniform                         // §4.4 storage (500KB-5MB)
	WorkloadWebSearch                       // empirical web-search CDF (DCTCP-style)
	WorkloadHadoop                          // empirical Hadoop CDF (FB-style); figdc default
)

// Scenario fully describes one simulation run. Zero values select the
// paper's defaults (filled in by normalize).
type Scenario struct {
	Name string

	// Fabric.
	Arity       int          // fat-tree arity; default 6 (54 hosts)
	Gbps        float64      // link rate; default 40
	Prop        sim.Duration // per-link propagation; default 2 µs
	BufferBytes int          // per-input-port buffer; default 2×BDP
	PFC         bool
	MTU         int // default 1000

	// Transport and congestion control.
	Transport Transport
	CC        CCKind

	// Workload.
	Load     float64 // default 0.7
	Workload WorkloadKind
	NumFlows int // default 1000
	Seed     uint64

	// Incast mode (Figure 9): when IncastM > 0 the Poisson workload is
	// replaced with IncastBytes striped over M senders; cross-traffic
	// can be layered on top with NumFlows > 0 and Load > 0.
	IncastM     int
	IncastBytes int

	// Shards splits this single run across that many engines, one shard
	// goroutine each, partitioned pod-wise along inter-pod links under
	// the conservative lookahead the fabric proves for the partitioning
	// (link propagation plus minimum-frame serialization; bare
	// propagation under PFC — see fabric.Network.Lookahead). Results are
	// bit-identical for every value — including 1 and 0 (serial) — by the
	// (time, rank) event-ordering contract; shards only buy wall-clock
	// time on multi-core machines. Fault-injection scenarios shard like
	// any other: transitions fire on the shard owning each directed link
	// and boundary links resolve faults on the consumer side.
	Shards int

	// IRN knobs (§3, §4.3 ablations, §6.3 overheads).
	Recovery       core.RecoveryMode
	NoBDPFC        bool
	RTOLow         sim.Duration // default 100 µs
	RTOHigh        sim.Duration // default 320 µs
	RTOLowN        int          // default 3
	NackThreshold  int          // default 1
	DynamicRTO     bool
	BackoffOnLoss  bool // forced on for AIMD/DCTCP
	RetxFetchDelay sim.Duration
	ExtraHeader    int
	// BDPCapScale multiplies the computed BDP cap (the §3.2 footnote:
	// over-estimating the BDP must stay safe). Zero means 1.
	BDPCapScale float64
	// Spray enables per-packet multipathing (§7 reordering study).
	Spray bool
	// SharedBuffer pools switch buffers across input ports (§A.5 note).
	SharedBuffer bool

	// Faults injects link-level failures — random loss, corruption, link
	// flaps, degraded links — the robustness axes of the extended paper's
	// appendix. The fault model is compiled against this scenario's
	// topology and seed at run start.
	Faults fault.Spec
	// RoCETimeouts forces the RoCE receiver's stall timer on even when
	// PFC would normally disable it (§4.1). Fault sweeps set it on every
	// point — including the fault-free baseline — so the series varies
	// only the fault axis, never the transport configuration.
	RoCETimeouts bool

	// KV replaces the flow workload with the replicated key-value
	// service (internal/kv) when KV.Requests > 0: a leader, KV.Followers
	// replicas and KV.Clients RPC clients are placed across the
	// fat-tree's pods and driven open-loop while this scenario's fault
	// schedule runs, measuring per-phase availability and commit latency
	// instead of FCTs. The verbs transport follows Transport: IRN runs
	// selective retransmission, RoCE go-back-N.
	KV kv.Options

	// Grace is how long past the last flow arrival the simulation may
	// run before unfinished flows are declared incomplete.
	Grace sim.Duration
}

// runOpts are the test-harness switches of a run. None of them can change
// a streaming aggregate or the executed-event set — the differential,
// lookahead and barrier-count tests pin exactly that — so they are not
// part of a Scenario, its store fingerprint, or any public surface;
// Worker.Run always passes the zero value.
type runOpts struct {
	// exact keeps every flow record (O(flows) memory) and returns the
	// merged record-retaining collector as Result.ExactCollector, so the
	// sort-based reference statistics sit next to the streaming ones.
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

// lookahead returns the safe-window width for a run on net.
func (o runOpts) lookahead(net *fabric.Network) sim.Duration {
	if o.bareLookahead {
		return net.Cfg.Prop
	}
	return net.Lookahead()
}

// normalize fills defaults.
func (s Scenario) normalize() Scenario {
	if s.Arity == 0 {
		s.Arity = 6
	}
	if s.Gbps == 0 {
		s.Gbps = 40
	}
	if s.Prop == 0 {
		s.Prop = 2 * sim.Microsecond
	}
	if s.MTU == 0 {
		s.MTU = 1000
	}
	if s.Load == 0 {
		s.Load = 0.7
	}
	if s.NumFlows == 0 && s.IncastM == 0 && s.KV.Requests == 0 {
		s.NumFlows = 1000
	}
	if s.KV.Requests > 0 {
		s.KV = s.KV.WithDefaults()
	}
	if s.RTOLow == 0 {
		s.RTOLow = 100 * sim.Microsecond
	}
	if s.RTOHigh == 0 {
		s.RTOHigh = 320 * sim.Microsecond
	}
	if s.RTOLowN == 0 {
		s.RTOLowN = 3
	}
	if s.NackThreshold == 0 {
		s.NackThreshold = 1
	}
	if s.BDPCapScale == 0 {
		s.BDPCapScale = 1
	}
	if s.Grace == 0 {
		s.Grace = 500 * sim.Millisecond
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards <= 0 {
		s.Shards = 1
	}
	return s
}

// Result is the outcome of one scenario run.
type Result struct {
	Name     string
	Scenario Scenario
	metrics.Summary
	// SinglePktCDF is the Figure 8 tail series (90–99.9%ile).
	SinglePktCDF []metrics.CDFPoint
	// RCT is the incast request completion time (last flow finishes).
	RCT sim.Duration
	// Net carries fabric counters (drops, pauses, marks).
	Net fabric.Stats
	// Census carries the packet-conservation counters, and InFlight the
	// fabric backlog at run end; together they close the conservation
	// equation the invariant harness asserts.
	Census   fabric.Census
	InFlight int
	// PoolLive is the number of packets still allocated out of the pool
	// at run end and CtrlBacklog the control packets queued at NICs that
	// never began transmission. Pool accounting demands
	// PoolLive == InFlight + CtrlBacklog: anything above is a leak,
	// anything below a double release (which also panics in the pool).
	PoolLive    int
	CtrlBacklog int
	// Retransmits and Timeouts aggregate sender recovery activity.
	Retransmits uint64
	Timeouts    uint64
	// Events is the number of engine events executed — a cost counter,
	// not a packet count; idle serialization ends execute none.
	Events uint64
	// SimTime is the simulated time at which the run ended.
	SimTime sim.Time
	// ShardsUsed is the number of shard engines the run actually spanned
	// (the partitioner may use fewer than requested on small topologies).
	// A wall-clock fact like MetricsBytes, zeroed by the shard-determinism
	// tests; the regression test for the former faults-force-serial
	// downgrade asserts on it.
	ShardsUsed int
	// FCTSketch is the merged FCT histogram of all completed flows —
	// exact integer bucket counts, so it is bit-identical for every shard
	// count and persists losslessly through the store (schema v2).
	FCTSketch *metrics.Histogram
	// MetricsBytes is the approximate live-heap footprint of the run's
	// collectors (per-shard plus the merged aggregate). For streaming
	// runs it is O(shards), independent of flow count — the figdc
	// memory-bound tests assert on it. It varies with the shard count, so
	// the shard-determinism tests zero it alongside Scenario.Shards.
	MetricsBytes int
	// ExactCollector is the merged exact-mode collector (records
	// retained), set only by the in-package differential harness, which
	// reads its Exact* reference statistics; nil otherwise.
	ExactCollector *metrics.Collector
	// KV is the replicated key-value service report, set only when the
	// scenario ran the kv workload (Scenario.KV.Requests > 0).
	KV *kv.Report
	// ShardStats is the shard-runtime report for the run: the lookahead
	// in force, barrier counts and per-shard window/event/drain
	// counters. BarrierWaitNs is wall-clock — like MetricsBytes it
	// varies run to run, so the determinism tests strip the whole
	// report. Not persisted by the store.
	ShardStats *ShardStats
}

// ShardStats reports how the conservative windowed runtime behaved for
// one run: which lookahead was in force, how many barriers the run paid,
// how many windows the adaptive extension widened, and what each shard
// did between barriers. Surfaced by `irnsim -shard-stats` and the bench
// suite's ReportMetric columns.
type ShardStats struct {
	// Lookahead is the safe-window width in force (the fabric's proven
	// bound; bare Prop only in the lookahead differential test).
	Lookahead sim.Duration
	// Barriers is the number of window barriers the run paid and
	// WideWindows how many of those adaptively extended a shard's window
	// past the uniform lookahead bound.
	Barriers    uint64
	WideWindows uint64
	// Shards holds one entry per shard engine, index-aligned with the
	// partitioning.
	Shards []ShardStat
}

// buildShardStats folds the windowed runtime's counters and the fabric's
// per-shard boundary drain counts into the Result's shard-runtime report.
func buildShardStats(net *fabric.Network, lookahead sim.Duration, w *sim.WindowStats) *ShardStats {
	st := &ShardStats{
		Lookahead:   lookahead,
		Barriers:    w.Barriers,
		WideWindows: w.WideWindows,
		Shards:      make([]ShardStat, len(w.Shards)),
	}
	for i, sh := range w.Shards {
		st.Shards[i] = ShardStat{
			Windows:       sh.Windows,
			Events:        sh.Events,
			BarrierWaitNs: sh.BarrierWaitNs,
			Drained:       net.DrainedBy(i),
		}
	}
	return st
}

// ShardStat is one shard's runtime counters.
type ShardStat struct {
	// Windows is the number of non-empty windows the shard ran and
	// Events how many events those windows executed.
	Windows uint64
	Events  uint64
	// BarrierWaitNs is wall-clock time the shard's goroutine spent
	// parked at barriers waiting for work — load-imbalance made visible.
	// Nondeterministic by nature.
	BarrierWaitNs int64
	// Drained counts cross-shard boundary occurrences (packets and PFC
	// frames) drained into this shard at barriers.
	Drained uint64
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
// wheel bucket arrays stay warm.
func (w *Worker) engines(n int) []*sim.Engine {
	for len(w.engs) < n {
		w.engs = append(w.engs, sim.NewEngine())
	}
	return w.engs[:n]
}

// fabricKey is the structural identity of a fabric: every input to its
// construction except the seed and the fault model, which Network.Reset
// re-applies per run. Two scenarios with equal keys run on identical
// topologies and configs. (It mirrors fabric.Config field by field rather
// than embedding it because Config's LossInject hook makes the struct
// non-comparable; scenarios never set that hook.)
type fabricKey struct {
	arity         int
	shards        int
	rate          fabric.Rate
	prop          sim.Duration
	bufferBytes   int
	pfc           bool
	pfcHeadroom   int
	pfcHysteresis int
	ecn           fabric.ECNConfig
	mtu           int
	spray         bool
	sharedBuffer  bool
}

// keyOf extracts the structural identity of a scenario's fabric.
func keyOf(arity, shards int, cfg fabric.Config) fabricKey {
	return fabricKey{
		arity:         arity,
		shards:        shards,
		rate:          cfg.Rate,
		prop:          cfg.Prop,
		bufferBytes:   cfg.BufferBytes,
		pfc:           cfg.PFC,
		pfcHeadroom:   cfg.PFCHeadroom,
		pfcHysteresis: cfg.PFCHysteresis,
		ecn:           cfg.ECN,
		mtu:           cfg.MTU,
		spray:         cfg.Spray,
		sharedBuffer:  cfg.SharedBuffer,
	}
}

// Run executes a scenario to completion (all flows finished or grace
// period exhausted) and returns its metrics. Package-level Run constructs
// a throwaway Worker; the fleet runner calls Worker.Run to reuse one.
func Run(s Scenario) Result { return NewWorker().Run(s) }

// Run executes a scenario on this worker, reusing the engine always and
// the fabric when the scenario is structurally identical to the previous
// run's.
func (w *Worker) Run(s Scenario) Result { return w.run(s, runOpts{}) }

// run is Run under the given test-harness switches.
func (w *Worker) run(s Scenario, o runOpts) Result {
	s = s.normalize()

	rate := fabric.Gbps(s.Gbps)
	bdp := fabric.BDPBytes(rate, s.Prop, topo.FatTreeLongestPathHops)
	linkBDP := fabric.BDPBytes(rate, s.Prop, 1)

	// Headroom must absorb everything in flight when X-OFF takes hold:
	// one link RTT of data (the paper's "upstream link's bandwidth-delay
	// product") plus the packet serializing at the pause instant and the
	// packet that may overshoot the threshold check.
	wire := s.MTU + packet.DataHeader + s.ExtraHeader
	cfg := fabric.Config{
		Rate:          rate,
		Prop:          s.Prop,
		BufferBytes:   s.BufferBytes,
		PFC:           s.PFC,
		PFCHeadroom:   linkBDP + 3*wire,
		PFCHysteresis: 2 * wire,
		MTU:           s.MTU,
		Seed:          s.Seed,
		Spray:         s.Spray,
		SharedBuffer:  s.SharedBuffer,
	}
	if cfg.BufferBytes == 0 {
		cfg.BufferBytes = 2 * bdp
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
	//
	// The cache is replaced whole, and only once nothing can fail any
	// more: a caller that recovers the fault-model panic below must find
	// the previous topology still paired with the previous fabric.
	shards := s.Shards
	key := keyOf(s.Arity, shards, cfg)
	reuse := w.built && w.key == key
	top := w.top
	if !reuse {
		top = topo.NewFatTree(s.Arity)
	}
	var faults *fault.Model
	if s.Faults.Enabled() {
		m, err := fault.New(s.Faults, len(top.Links()), s.Seed)
		if err != nil {
			panic(fmt.Sprintf("exp: scenario %q: %v", s.Name, err))
		}
		faults = m
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
	bdpCap := int(float64(net.BDPCap()) * s.BDPCapScale)
	if bdpCap < 1 {
		bdpCap = 1
	}

	if s.KV.Requests > 0 {
		return w.runKV(s, o, net, engines, top, bdpCap)
	}

	// Build the flow list.
	var specs []workload.Spec
	if s.IncastM > 0 {
		specs = workload.Incast(top.Hosts(), s.IncastM, s.IncastBytes, s.Seed)
	}
	incastFlows := len(specs)
	if s.NumFlows > 0 {
		var dist workload.SizeDist
		switch s.Workload {
		case WorkloadUniform:
			dist = workload.NewUniform()
		case WorkloadWebSearch:
			dist = workload.NewWebSearch()
		case WorkloadHadoop:
			dist = workload.NewHadoop()
		default:
			dist = workload.NewHeavyTailed()
		}
		specs = append(specs, workload.Generate(workload.PoissonConfig{
			Hosts:         top.Hosts(),
			Load:          s.Load,
			RatePsPerByte: int64(rate),
			MTU:           s.MTU,
			HeaderBytes:   packet.DataHeader + s.ExtraHeader,
			NumFlows:      s.NumFlows,
			Dist:          dist,
			Seed:          s.Seed,
		})...)
	}

	l := &launcher{
		s:           s,
		net:         net,
		bdpCap:      bdpCap,
		minRTT:      sim.Duration(2*top.LongestPathHops()) * (s.Prop + rate.Serialize(s.MTU+packet.DataHeader)),
		specs:       specs,
		flows:       make([]transport.Flow, len(specs)),
		stats:       make([]*transport.SenderStats, len(specs)),
		rcvs:        make([]*rocev2.Receiver, len(specs)),
		cols:        make([]*metrics.Collector, net.Shards()),
		shard:       make([]launcherShard, net.Shards()),
		incastFlows: incastFlows,
	}
	for i := range l.cols {
		l.cols[i] = o.collector()
	}

	// Each flow arrives as two typed events: the sender attaches on the
	// shard owning the source host, the receiver on the shard owning the
	// destination. Both are ranked under the touched node's clock at
	// setup time, so arrival order is a constant of the scenario, not of
	// the partitioning. (The receiver is in place well before the first
	// data packet: data needs at least one propagation delay — the
	// lookahead — to reach the destination.)
	var lastArrival sim.Time
	for i, spec := range specs {
		l.flows[i] = transport.Flow{
			ID:    packet.FlowID(i + 1),
			Src:   spec.Src,
			Dst:   spec.Dst,
			Size:  spec.Size,
			Pkts:  transport.NumPackets(spec.Size, s.MTU),
			Start: spec.Start,
		}
		if spec.Start > lastArrival {
			lastArrival = spec.Start
		}
		net.EngineOf(spec.Src).ScheduleEventFrom(net.Clock(spec.Src), spec.Start, l, launchSrc, uint64(i))
		net.EngineOf(spec.Dst).ScheduleEventFrom(net.Clock(spec.Dst), spec.Start, l, launchDst, uint64(i))
	}

	// Conservative windowed execution, serial included: the run always
	// advances through lookahead-bounded safe windows with completion
	// checked at barriers. The Done horizon clamps the run to "last
	// completion plus the canonical window slack", so the set of executed
	// events — and with it every counter below — is identical for every
	// shard count AND every lookahead width up to the slack.
	lookahead := o.lookahead(net)
	deadline := lastArrival.Add(s.Grace)
	var wstats sim.WindowStats
	sim.RunWindows(sim.WindowConfig{
		Engines:      engines,
		Lookahead:    lookahead,
		Deadline:     deadline,
		Drain:        net.DrainAll,
		Done:         l.allDone,
		Horizon:      l.horizon,
		Widen:        l.widen,
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
		ShardsUsed:  net.Shards(),
	}
	for _, e := range engines {
		res.Events += e.Executed()
		if t := e.Now(); t > res.SimTime {
			res.SimTime = t
		}
	}
	res.ShardStats = buildShardStats(net, lookahead, &wstats)
	var incastDone sim.Time
	for i := range l.shard {
		if t := l.shard[i].incastDone; t > incastDone {
			incastDone = t
		}
	}
	res.RCT = sim.Duration(incastDone)
	// Completions streamed into per-shard collectors during the run
	// (each written only by the shard owning the flow's destination);
	// merge them in shard order. Every merged aggregate is exact-integer
	// state, so the fold reproduces the serial run bit for bit.
	agg := o.collector()
	for _, c := range l.cols {
		res.MetricsBytes += c.MemFootprint()
		agg.Merge(c)
	}
	for i := range l.flows {
		if !l.flows[i].Finished {
			agg.AddIncomplete()
		}
		if st := l.stats[i]; st != nil {
			res.Retransmits += st.Retransmits
			res.Timeouts += st.Timeouts
		}
		if rcv := l.rcvs[i]; rcv != nil {
			res.Timeouts += rcv.TimeoutNacks
		}
	}
	res.MetricsBytes += agg.MemFootprint()
	res.Summary = agg.Summarize()
	res.SinglePktCDF = agg.SinglePacketTail([]float64{90, 95, 99, 99.9})
	res.FCTSketch = agg.FCTHistogram()
	if o.exact {
		res.ExactCollector = agg
	}
	return res
}

// launcher event kinds: attach flow arg's sender (on the source host's
// shard) or its receiver (on the destination host's shard).
const (
	launchSrc uint8 = iota
	launchDst
)

// launcherShard is one shard's slice of the launcher: completion
// bookkeeping, written only by that shard's goroutine during windows and
// read by the coordinator at barriers, and the slabs that shard carves
// per-flow transport state from. Padded so two shards' fields never share
// a cache line.
type launcherShard struct {
	done       int      // flows whose destination lives on this shard
	incastDone sim.Time // latest incast completion seen on this shard
	lastDone   sim.Time // latest completion of any flow on this shard
	// stopTarget, when positive, is the done count at which this shard
	// self-stops its engine: the widen grant's promise that the shard
	// halts no later than the run's Done condition turning true. Written
	// by the coordinator at barriers (widen), read by the shard during
	// windows (FlowDone) — barrier ordering covers both.
	stopTarget int

	// A sender is carved on its source host's shard, a receiver on its
	// destination's. The slabs belong to the run — nothing is recycled,
	// and the chunks die with the launcher as separately allocated objects
	// would — so starting a flow costs a fraction of a heap allocation.
	// Only the slabs of the scenario's transport ever fill.
	irnSnd  slab.Slab[core.Sender]
	irnRcv  slab.Slab[core.Receiver]
	roceSnd slab.Slab[rocev2.Sender]
	roceRcv slab.Slab[rocev2.Receiver]
	tcpSnd  slab.Slab[tcpstack.Sender]
	tcpRcv  slab.Slab[tcpstack.Receiver]
	words   slab.Slab[uint64] // SACK and arrival bitmap words

	_ [7]uint64 // to 256 bytes
}

// launcher wires each flow's transports at the flow's arrival time and
// collects completions. It is a sim.Handler (arg = flow index) and the
// flows' transport.Completer, so launching and completing a thousand
// flows schedules no closures; per-flow state lives in index-addressed
// slices whose slots are each written by exactly one shard.
type launcher struct {
	s      Scenario
	net    *fabric.Network
	bdpCap int
	minRTT sim.Duration

	specs []workload.Spec
	flows []transport.Flow
	stats []*transport.SenderStats // [i] written by the shard of flow i's source
	// rcvs[i] is written by the shard of flow i's destination: RoCE's
	// timeout count lives on the receiver, which a different shard than
	// the sender's may own, so each slice has one writing shard per slot.
	rcvs []*rocev2.Receiver
	// cols[k] is shard k's streaming collector: each completion folds
	// into the collector of the shard owning the flow's destination as it
	// happens, so a run holds O(shards) metric state instead of a
	// per-flow record slice. The coordinator merges them in shard order
	// after the run; every merged aggregate is integer-derived, so the
	// fold is bit-identical for any shard count.
	cols        []*metrics.Collector
	shard       []launcherShard
	incastFlows int
}

// HandleEvent implements sim.Handler: flow arg arrives.
func (l *launcher) HandleEvent(kind uint8, arg uint64) {
	if kind == launchSrc {
		l.startSender(int(arg))
	} else {
		l.startReceiver(int(arg))
	}
}

// allDone reports whether every flow completed — the windowed run's stop
// condition, polled at barriers where all shards are quiescent.
func (l *launcher) allDone() bool {
	done := 0
	for i := range l.shard {
		done += l.shard[i].done
	}
	return done == len(l.specs)
}

// FlowDone implements transport.Completer: flow fl's last packet arrived.
// Runs on the shard owning the flow's destination host; every slot it
// writes is owned by that shard.
func (l *launcher) FlowDone(fl *transport.Flow, now sim.Time) {
	i := int(fl.ID) - 1
	spec := l.specs[i]
	k := l.net.ShardOf(fl.Dst)
	l.cols[k].Add(metrics.FlowRecord{
		Size:         spec.Size,
		Pkts:         fl.Pkts,
		FCT:          now.Sub(spec.Start),
		Ideal:        l.net.IdealFCT(spec.Src, spec.Dst, spec.Size),
		SinglePacket: fl.Pkts == 1,
	})
	sh := &l.shard[k]
	if i < l.incastFlows && now > sh.incastDone {
		sh.incastDone = now
	}
	if now > sh.lastDone {
		sh.lastDone = now
	}
	sh.done++
	if sh.stopTarget > 0 && sh.done >= sh.stopTarget {
		// An adaptively widened window is in force and this shard just
		// hit the flow count that makes the run's Done condition true:
		// stop the engine so the barrier can evaluate it. The engine may
		// resume in later windows if the snapshot was stale.
		l.net.EngineOf(fl.Dst).Stop()
	}
}

// widen is the sim.WindowConfig.Widen hook: consulted at a barrier when
// shard is the unique minimum-holding shard and the run could extend its
// window past the uniform lookahead bound. The grant's obligation is a
// self-stop firing no later than allDone turning true, so the extension
// cannot run past the completion the Done horizon would clamp to: allDone
// is a pure flow count, so the hook arms shard's stopTarget at "every
// flow not yet done elsewhere" — exactly the count at which this shard's
// completions make allDone true. Stale snapshots are safe: if other
// shards complete flows during the widened window, the global last
// completion only moves later, and the horizon still covers the window.
func (l *launcher) widen(shard int) bool {
	others := 0
	for i := range l.shard {
		if i != shard {
			others += l.shard[i].done
			l.shard[i].stopTarget = 0
		}
	}
	l.shard[shard].stopTarget = len(l.specs) - others
	return true
}

// horizon is the sim.WindowConfig.Horizon hook: once every flow has
// completed, the run is clamped to the last completion time plus the
// canonical window slack — the latest instant any window containing that
// completion could reach, for any shard count and any lookahead at or
// below the slack. Clamping to a canonical instant (rather than stopping
// at whatever barrier noticed completion) is what keeps Events, SimTime
// and the trailing census identical across partitionings and lookahead
// widths. Called at a barrier, so reading the shard slots is ordered.
func (l *launcher) horizon() sim.Time {
	var last sim.Time
	for i := range l.shard {
		if t := l.shard[i].lastDone; t > last {
			last = t
		}
	}
	return last.Add(l.net.WindowSlack())
}

// startSender attaches flow i's sender (and its congestion controller) to
// the source NIC. Runs on the source host's shard.
func (l *launcher) startSender(i int) {
	s := l.s
	fl := &l.flows[i]
	src := l.net.NIC(fl.Src)
	sh := &l.shard[l.net.ShardOf(fl.Src)]

	ctrl := buildCC(src, s, l.bdpCap, l.minRTT)
	switch s.Transport {
	case TransportIRN:
		snd := sh.irnSnd.Get()
		snd.Init(src, fl, l.irnParams(), ctrl, &sh.words)
		src.AttachSource(snd)
		l.stats[i] = &snd.Stats
	case TransportRoCE:
		snd := sh.roceSnd.Get()
		snd.Init(src, fl, l.roceParams(), ctrl)
		src.AttachSource(snd)
		l.stats[i] = &snd.Stats
	case TransportTCP:
		snd := sh.tcpSnd.Get()
		snd.Init(src, fl, tcpstack.DefaultParams(s.MTU), &sh.words)
		src.AttachSource(snd)
		l.stats[i] = &snd.Stats
	}
}

// startReceiver attaches flow i's receiver to the destination NIC. Runs
// on the destination host's shard — which may differ from the sender's;
// splitting the attachment keeps each shard touching only its own nodes.
func (l *launcher) startReceiver(i int) {
	s := l.s
	fl := &l.flows[i]
	dst := l.net.NIC(fl.Dst)
	sh := &l.shard[l.net.ShardOf(fl.Dst)]

	switch s.Transport {
	case TransportIRN:
		rcv := sh.irnRcv.Get()
		rcv.Init(dst, fl, l.irnParams(), l, &sh.words)
		dst.AttachSink(fl.ID, rcv)
	case TransportRoCE:
		rcv := sh.roceRcv.Get()
		rcv.Init(dst, fl, l.roceParams(), l)
		dst.AttachSink(fl.ID, rcv)
		l.rcvs[i] = rcv
	case TransportTCP:
		rcv := sh.tcpRcv.Get()
		rcv.Init(dst, fl, tcpstack.DefaultParams(s.MTU), l, &sh.words)
		dst.AttachSink(fl.ID, rcv)
	}
}

// irnParams derives the IRN transport parameters from the scenario.
func (l *launcher) irnParams() core.Params {
	s := l.s
	p := core.Params{
		MTU:              s.MTU,
		BDPCap:           l.bdpCap,
		Recovery:         s.Recovery,
		RTOLow:           s.RTOLow,
		RTOHigh:          s.RTOHigh,
		RTOLowThreshold:  s.RTOLowN,
		DynamicRTO:       s.DynamicRTO,
		NackThreshold:    s.NackThreshold,
		BackoffOnLoss:    s.BackoffOnLoss || s.CC == CCAIMD || s.CC == CCDCTCP,
		RetxFetchDelay:   s.RetxFetchDelay,
		ExtraHeaderBytes: s.ExtraHeader,
		ECT:              s.CC == CCDCQCN || s.CC == CCDCTCP,
	}
	if s.NoBDPFC {
		p.BDPCap = 0
	}
	return p
}

// roceParams derives the RoCE transport parameters from the scenario.
func (l *launcher) roceParams() rocev2.Params {
	s := l.s
	return rocev2.Params{
		MTU:     s.MTU,
		RTOHigh: s.RTOHigh,
		// The paper disables RoCE timeouts when PFC guarantees
		// losslessness (§4.1); injected faults break that guarantee,
		// so fault scenarios keep timeouts even under PFC.
		DisableTimeout: s.PFC && !s.Faults.Enabled() && !s.RoCETimeouts,
		PerPacketAck:   s.CC == CCTimely,
		ECT:            s.CC == CCDCQCN,
	}
}

// buildCC constructs the per-flow congestion controller on the sender's
// endpoint (engine and rank clock of the source host's shard).
func buildCC(ep transport.Endpoint, s Scenario, bdpCap int, minRTT sim.Duration) transport.Controller {
	switch s.CC {
	case CCTimely:
		return cc.NewTimely(cc.DefaultTimelyConfig(s.Gbps, minRTT))
	case CCDCQCN:
		return cc.NewDCQCN(ep.Engine(), ep.Clock(), cc.DefaultDCQCNConfig(s.Gbps))
	case CCAIMD:
		return cc.NewAIMD(bdpCap)
	case CCDCTCP:
		return cc.NewDCTCP(bdpCap)
	default:
		return nil
	}
}

// String renders a result line in the paper's units.
func (r Result) String() string {
	return fmt.Sprintf("%-34s %s drops=%d pauses=%d retx=%d", r.Name, r.Summary, r.Net.Drops, r.Net.PauseFrames, r.Retransmits)
}
