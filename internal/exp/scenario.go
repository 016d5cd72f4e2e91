// Package exp is the experiment harness: it instantiates a scenario (the
// paper's default case or any of its §4.4 variations), wires the chosen
// transport and congestion control onto every generated flow, runs the
// simulation, and reports the paper's metrics. Each figure and table of
// the evaluation has a named preset in presets.go.
package exp

import (
	"fmt"
	"math"

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/verbs"
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

// The values every run uses and no scenario varies: the paper fixes the
// first three in §4.1, and its appendix sweeps never move them.
const (
	prop   = 2 * sim.Microsecond   // per-link propagation delay (§4.1)
	mtu    = 1000                  // bytes of payload per packet (§4.1)
	rtoLow = 100 * sim.Microsecond // IRN's RTO_low (§4.1)
	// grace is how long past the last flow arrival or kv request issue a
	// run may go on before unfinished flows are declared incomplete.
	grace = 500 * sim.Millisecond
)

// Scenario fully describes one simulation run. Zero values select the
// paper's defaults (filled in by normalize).
type Scenario struct {
	Name string

	// Fabric.
	Arity       int     // fat-tree arity; default 6 (54 hosts)
	Gbps        float64 // link rate; default 40
	BufferBytes int     // per-input-port buffer; default 2×BDP
	PFC         bool

	// Transport and congestion control. iWARP (TransportTCP) runs its
	// TCP stack's own congestion control and takes CCNone only.
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
	IncastBytes int // default 15 MB when IncastM > 0

	// Shards splits this single run across that many engines, one shard
	// goroutine each, partitioned pod-wise along inter-pod links under
	// the conservative lookahead the fabric proves for the partitioning
	// (link propagation plus minimum-frame serialization; bare
	// propagation under PFC — see fabric.Network.Lookahead). Results are
	// bit-identical for every value — including 1 and 0 (serial) — by the
	// (time, rank) event-ordering contract; shards only buy wall-clock
	// time on multi-core machines. Fault-injected and KV scenarios run
	// serial whatever is asked: normalize sets 1 for them, because
	// sharding was only ever measured to pay on large fault-free flow runs.
	Shards int

	// IRN knobs (§3, §4.3 ablations, §6.3 overheads).
	Recovery      core.RecoveryMode
	NoBDPFC       bool
	RTOHigh       sim.Duration // default 320 µs
	RTOLowN       int          // default 3
	NackThreshold int          // default 1
	DynamicRTO    bool
	// BackoffOnLoss makes Timely halve its rate on every loss its
	// sender reports (the §4.3 go-back-N-with-backoff ablation). AIMD
	// and DCTCP back off on loss whether it is set or not, and DCQCN
	// never does.
	BackoffOnLoss  bool
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

	// KV deploys the replicated key-value service (internal/kv) when
	// KV.Requests > 0: a leader, KV.Followers replicas and KV.Clients RPC
	// clients are placed across the fat-tree's pods and driven open-loop
	// while this scenario's fault schedule runs, measuring per-phase
	// availability and commit latency. Flows and incast run next to it
	// when NumFlows or IncastM is set (NumFlows has no default then). The
	// verbs transport follows Transport: IRN runs selective
	// retransmission, RoCE go-back-N.
	KV kv.Options
}

// normalize fills defaults.
func (s Scenario) normalize() Scenario {
	if s.Arity == 0 {
		s.Arity = 6
	}
	if s.Gbps == 0 {
		s.Gbps = 40
	}
	if s.Load == 0 {
		s.Load = 0.7
	}
	if s.NumFlows == 0 && s.IncastM == 0 && s.KV.Requests == 0 {
		s.NumFlows = 1000
	}
	if s.IncastM > 0 && s.IncastBytes == 0 {
		s.IncastBytes = 15_000_000
	}
	if s.KV.Requests > 0 {
		s.KV = s.KV.WithDefaults()
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
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards <= 0 || s.Faults.Enabled() || s.KV.Requests > 0 {
		s.Shards = 1
	}
	return s
}

// bdpCap is a normalized run's BDP-FC cap in packets: its fat-tree's
// fabric.BDPCap scaled by BDPCapScale, in [1, MaxInt32] so a huge scale
// saturates rather than wraps.
func (s Scenario) bdpCap() int {
	c := fabric.BDPCap(fabric.Gbps(s.Gbps), prop, topo.FatTreeLongestPathHops, mtu)
	return max(1, int(min(float64(c)*s.BDPCapScale, math.MaxInt32)))
}

// poisson is the normalized scenario's Poisson flow workload on a fabric
// of the given host count.
func (s Scenario) poisson(hosts int) workload.PoissonConfig {
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
	return workload.PoissonConfig{
		Hosts:         hosts,
		Load:          s.Load,
		RatePsPerByte: int64(fabric.Gbps(s.Gbps)),
		MTU:           mtu,
		HeaderBytes:   packet.DataHeader + s.ExtraHeader,
		NumFlows:      s.NumFlows,
		Dist:          dist,
		Seed:          s.Seed,
	}
}

// FieldError is a Scenario input no run can take: the field it names
// ("KV.Requests" for a nested one) and what is wrong with its value.
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return e.Field + ": " + e.Err.Error() }

// Validate is the one gate on a scenario's inputs: it reports the first
// field of the normalized scenario no run can take — one that would panic
// deep in a run, run silently wrong or run nothing — as a *FieldError, or
// nil. It builds nothing: the fat-tree's host and link counts follow from
// its arity. It applies kv.Options.Validate and fault.Spec.Validate too.
func (s Scenario) Validate() error {
	s = s.normalize()
	bad := func(field, format string, args ...any) error {
		return &FieldError{Field: field, Err: fmt.Errorf(format, args...)}
	}
	if s.Arity < 2 || s.Arity%2 != 0 {
		return bad("Arity", "fat-tree arity %d must be even and >= 2", s.Arity)
	}
	hosts := (&topo.FatTree{K: s.Arity}).Hosts()
	// Delays and timeouts stay below a 64th of the simulator's clock
	// (about 40 hours), so the sums a run forms from them cannot wrap.
	const longest = int64(sim.MaxTime / 64)
	for _, n := range []struct {
		field, what string
		v, max      int64
	}{
		{"NumFlows", "flow count %d", int64(s.NumFlows), math.MaxInt64},
		{"KV.Requests", "KV request count %d", int64(s.KV.Requests), math.MaxInt64},
		{"BufferBytes", "per-port buffer %d bytes", int64(s.BufferBytes), math.MaxInt64},
		{"ExtraHeader", "extra header %d bytes", int64(s.ExtraHeader), math.MaxInt64},
		{"RTOLowN", "RTOLowN %d", int64(s.RTOLowN), math.MaxInt64},
		{"NackThreshold", "NACK threshold %d", int64(s.NackThreshold), math.MaxInt64},
		{"RTOHigh", "RTOHigh %dps", int64(s.RTOHigh), longest},
		{"RetxFetchDelay", "retransmission fetch delay %dps", int64(s.RetxFetchDelay), longest},
	} {
		switch {
		case n.v < 0:
			return bad(n.field, n.what+" must be >= 0", n.v)
		case n.v > n.max:
			return bad(n.field, n.what+" must be at most %d", n.v, n.max)
		}
	}
	switch {
	case s.IncastM < 0 || s.IncastM >= hosts:
		return bad("IncastM", "incast fan-in %d must be in [0, %d) on the %d-host fabric", s.IncastM, hosts, hosts)
	case s.IncastBytes < s.IncastM:
		return bad("IncastBytes", "incast size %d bytes must be >= 0 and a byte at least for each of %d senders", s.IncastBytes, s.IncastM)
	case !(s.Gbps >= 0.001 && s.Gbps <= 8000):
		return bad("Gbps", "link rate Gbps %v must be >= 0 (0 = 40), and a set rate in [0.001, 8000]", s.Gbps)
	case !(s.Load >= 0) || s.NumFlows > 0 && !(64*s.poisson(hosts).ExpectedSpan() < float64(sim.MaxTime)):
		return bad("Load", "Load %v must be >= 0 (0 = 0.7) and keep %d flows' arrivals within the simulator's clock", s.Load, s.NumFlows)
	case !(s.BDPCapScale > 0):
		return bad("BDPCapScale", "BDP cap scale %v must be > 0 (0 = 1)", s.BDPCapScale)
	case s.Transport > TransportTCP:
		return bad("Transport", "unknown transport %d", s.Transport)
	case s.CC > CCDCTCP:
		return bad("CC", "unknown congestion control %d", s.CC)
	case s.Transport == TransportTCP && s.CC != CCNone:
		return bad("CC", "congestion control %v on iWARP, whose TCP stack has its own: only none runs", s.CC)
	case s.Workload > WorkloadHadoop:
		return bad("Workload", "unknown workload %d", s.Workload)
	case s.Recovery > core.RecoveryNoSACK:
		return bad("Recovery", "unknown IRN recovery mode %d", s.Recovery)
	}
	if s.KV.Requests > 0 {
		if err := s.KV.Validate(hosts); err != nil {
			return &FieldError{Field: "KV", Err: err}
		}
		if c := s.bdpCap(); c > verbs.PSNWindow {
			return bad("BDPCapScale", "KV QPs take a BDP cap of at most %d packets, the PSN window; this fabric's is %d", verbs.PSNWindow, c)
		}
	}
	if err := s.Faults.Validate(3 * hosts); err != nil { // k³/4 links in each of three tiers
		return &FieldError{Field: "Faults", Err: err}
	}
	return nil
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
	// KV is the replicated key-value service report, set only when the
	// scenario ran the kv service (Scenario.KV.Requests > 0).
	KV *kv.Report
	// ShardStats is the shard-runtime report for the run: the lookahead
	// in force, barrier counts and per-shard window/event/drain
	// counters. BarrierWaitNs is wall-clock — like MetricsBytes it
	// varies run to run, so the determinism tests strip the whole
	// report. Not persisted by the store.
	ShardStats *ShardStats
}

// CheckConservation verifies the run's packet-conservation census and pool
// accounting: something was injected, every injected packet exited the
// fabric or is still in flight,
//
//	Injected == Delivered + OverflowDrops + FaultDrops + Corrupted + InFlight
//
// and every packet the pools own is in flight or awaiting its first
// transmission (PoolLive == InFlight + CtrlBacklog). A census miss means a
// packet died unaccounted (low) or was counted twice (high); a pool miss
// means a leak or a double release.
func (r *Result) CheckConservation() error {
	c := &r.Census
	if c.Injected == 0 {
		return fmt.Errorf("%s: no packets injected — the run ran nothing", r.Name)
	}
	if want := c.Exits() + uint64(r.InFlight); c.Injected != want {
		return fmt.Errorf("%s: conservation violated: injected %d != delivered %d + overflow %d + fault %d + corrupted %d + in-flight %d",
			r.Name, c.Injected, c.Delivered, c.OverflowDrops, c.FaultDrops, c.Corrupted, r.InFlight)
	}
	if r.PoolLive != r.InFlight+r.CtrlBacklog {
		return fmt.Errorf("%s: pool accounting violated: %d live packets != %d in-flight + %d ctrl backlog (leak or double release)",
			r.Name, r.PoolLive, r.InFlight, r.CtrlBacklog)
	}
	return nil
}

// ShardStats reports how the conservative windowed runtime behaved for
// one run: which lookahead was in force, the runtime's own counters
// (barriers, widened windows, and each shard's windows, events and
// barrier wait), and what each shard drained from its boundary channels.
// Surfaced by `irnsim -shard-stats` and the bench suite's ReportMetric
// columns.
type ShardStats struct {
	// Lookahead is the safe-window width in force (the fabric's proven
	// bound; bare Prop only in the lookahead differential test).
	Lookahead sim.Duration
	sim.WindowStats
	// Drained[i] counts the cross-shard boundary occurrences (packets and
	// PFC frames) drained into shard i at barriers.
	Drained []uint64
}

// buildShardStats pairs the windowed runtime's counters with the fabric's
// per-shard boundary drain counts.
func buildShardStats(net *fabric.Network, lookahead sim.Duration, w *sim.WindowStats) *ShardStats {
	st := &ShardStats{Lookahead: lookahead, WindowStats: *w, Drained: make([]uint64, len(w.Shards))}
	for i := range st.Drained {
		st.Drained[i] = net.DrainedBy(i)
	}
	return st
}

// String renders a result line in the paper's units.
func (r Result) String() string {
	return fmt.Sprintf("%-34s %s drops=%d pauses=%d retx=%d", r.Name, r.Summary, r.Net.Drops, r.Net.PauseFrames, r.Retransmits)
}
