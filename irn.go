// Package irn is a from-scratch reproduction of "Revisiting Network
// Support for RDMA" (Mittal et al., SIGCOMM 2018): the IRN (Improved RoCE
// NIC) transport — SACK-based selective-retransmit loss recovery plus
// BDP-FC end-to-end flow control — together with the packet-level
// datacenter network simulator, the RoCE and iWARP baselines, PFC, the
// DCQCN and Timely congestion-control schemes, the §5 RDMA verbs layer
// with out-of-order packet placement, and the §6 NIC hardware model that
// the paper's evaluation rests on.
//
// The top-level API runs simulation scenarios:
//
//	result, err := irn.Run(irn.Config{
//	    Transport: irn.TransportIRN,
//	    Flows:     2000,
//	})
//	if err != nil {
//	    log.Fatal(err) // a Config no run can take
//	}
//	fmt.Println(result.AvgSlowdown, result.AvgFCTms, result.P99FCTms)
//
// Every figure and table of the paper has a named experiment preset; see
// cmd/experiments for the full reproduction suite, and the examples/
// directory for runnable API walkthroughs (including the RDMA verbs layer
// via irn.NewQP).
package irn

import (
	"time"

	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/sim"
)

// Transport selects the NIC transport.
type Transport int

// Transports under evaluation.
const (
	// TransportIRN is the paper's contribution (§3).
	TransportIRN Transport = iota
	// TransportRoCE is the go-back-N transport of current RoCE NICs.
	TransportRoCE
	// TransportIWARP is the full TCP stack in the NIC (§2.3, §4.6).
	TransportIWARP
)

// CongestionControl selects explicit congestion control.
type CongestionControl int

// Congestion-control schemes.
const (
	CCNone CongestionControl = iota
	CCTimely
	CCDCQCN
	CCAIMD
	CCDCTCP
)

// RecoveryMode selects IRN's loss-recovery ablations (§4.3).
type RecoveryMode int

// Recovery modes.
const (
	RecoverySACK RecoveryMode = iota
	RecoveryGoBackN
	RecoveryNoSACK
)

// WorkloadKind selects the flow-size distribution (§4.1, §4.4).
type WorkloadKind int

// Workloads.
const (
	WorkloadHeavyTailed WorkloadKind = iota
	WorkloadUniform
)

// Config describes one simulation run. The zero value reproduces the
// paper's default case: a 54-host fat-tree of 40 Gbps links with 2 µs
// propagation delay, 240 KB per-port buffers, heavy-tailed traffic at 70%
// load, IRN transport, no PFC, no explicit congestion control.
type Config struct {
	// Transport is the NIC transport under test.
	Transport Transport
	// CC is the congestion-control scheme.
	CC CongestionControl
	// PFC enables priority flow control in the fabric.
	PFC bool

	// FatTreeArity sizes the topology: 6 → 54 hosts, 8 → 128, 10 → 250.
	FatTreeArity int
	// LinkGbps is the link bandwidth (default 40).
	LinkGbps float64
	// PropDelay is the per-link propagation delay (default 2 µs).
	PropDelay time.Duration
	// BufferBytes is the per-input-port switch buffer (default 2×BDP).
	BufferBytes int
	// MTU is the RDMA payload per packet (default 1000).
	MTU int

	// Load is the target utilization of host links (default 0.7).
	Load float64
	// Workload picks the flow-size distribution.
	Workload WorkloadKind
	// Flows is how many flows to simulate (default 1000).
	Flows int
	// Seed makes runs reproducible (default 1).
	Seed uint64
	// Shards splits the single run across this many cores using the
	// conservative-parallel engine (pod-partitioned fat-tree, link
	// propagation delay as lookahead). Results are bit-identical at any
	// value; >1 only buys wall-clock time on multi-core machines.
	Shards int

	// IncastFanIn, when positive, replaces the Poisson workload with
	// IncastBytes striped across this many senders (§4.4.3); combine
	// with Flows > 0 for incast over cross-traffic.
	IncastFanIn int
	// IncastBytes is the total incast transfer (default 15 MB scaled).
	IncastBytes int

	// Recovery selects IRN's loss-recovery ablation.
	Recovery RecoveryMode
	// DisableBDPFC removes IRN's in-flight cap (Figure 7 ablation).
	DisableBDPFC bool
	// RTOLow / RTOHigh are IRN's two timeouts (defaults 100 µs / 320 µs).
	RTOLow, RTOHigh time.Duration
	// RTOLowThreshold is N: RTOLow applies below N packets in flight.
	RTOLowThreshold int
	// NackThreshold delays loss recovery until this many NACKs arrive
	// (reordering tolerance, §7). Default 1.
	NackThreshold int
	// DynamicRTO uses a TCP-style adaptive timeout (§4.3).
	DynamicRTO bool
	// RetxFetchDelay models the worst-case PCIe fetch of retransmitted
	// packets (§6.3; the paper uses 2 µs).
	RetxFetchDelay time.Duration
	// ExtraHeaderBytes grows every data packet (§6.3 worst case: 16).
	ExtraHeaderBytes int
}

// Result summarizes a run with the paper's metrics (§4.1).
type Result struct {
	// AvgSlowdown is mean FCT over the empty-network ideal.
	AvgSlowdown float64
	// AvgFCTms and P99FCTms are the mean and tail flow completion times
	// in milliseconds.
	AvgFCTms float64
	P99FCTms float64
	// SinglePacketTailMs is the Figure 8 series: single-packet message
	// latency at the 90/95/99/99.9 percentiles, in ms.
	SinglePacketTailMs []float64
	// IncastRCTms is the request completion time for incast runs.
	IncastRCTms float64
	// Completed and Incomplete count flows.
	Completed, Incomplete int
	// Fabric counters.
	Drops, PauseFrames, ECNMarked uint64
	// Transport counters.
	Retransmits, Timeouts uint64
	// Events is the number of simulator events executed.
	Events uint64
}

// Run executes a configuration and returns its metrics, or, without
// running, an error naming the first setting no run can take.
func Run(cfg Config) (Result, error) {
	s := exp.Scenario{
		Name:           "api",
		Arity:          cfg.FatTreeArity,
		Gbps:           cfg.LinkGbps,
		Prop:           sim.Duration(cfg.PropDelay.Nanoseconds()) * sim.Nanosecond,
		BufferBytes:    cfg.BufferBytes,
		PFC:            cfg.PFC,
		MTU:            cfg.MTU,
		Transport:      exp.Transport(cfg.Transport),
		CC:             exp.CCKind(cfg.CC),
		Load:           cfg.Load,
		Workload:       exp.WorkloadKind(cfg.Workload),
		NumFlows:       cfg.Flows,
		Seed:           cfg.Seed,
		Shards:         cfg.Shards,
		IncastM:        cfg.IncastFanIn,
		IncastBytes:    cfg.IncastBytes,
		Recovery:       core.RecoveryMode(cfg.Recovery),
		NoBDPFC:        cfg.DisableBDPFC,
		RTOLow:         sim.Duration(cfg.RTOLow.Nanoseconds()) * sim.Nanosecond,
		RTOHigh:        sim.Duration(cfg.RTOHigh.Nanoseconds()) * sim.Nanosecond,
		RTOLowN:        cfg.RTOLowThreshold,
		NackThreshold:  cfg.NackThreshold,
		DynamicRTO:     cfg.DynamicRTO,
		RetxFetchDelay: sim.Duration(cfg.RetxFetchDelay.Nanoseconds()) * sim.Nanosecond,
		ExtraHeader:    cfg.ExtraHeaderBytes,
	}
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	r := exp.Run(s)

	out := Result{
		AvgSlowdown: r.AvgSlowdown,
		AvgFCTms:    r.AvgFCT.Millis(),
		P99FCTms:    r.TailFCT.Millis(),
		IncastRCTms: r.RCT.Millis(),
		Completed:   r.Summary.Flows,
		Incomplete:  r.Summary.Incomplete,
		Drops:       r.Net.Drops,
		PauseFrames: r.Net.PauseFrames,
		ECNMarked:   r.Net.ECNMarked,
		Retransmits: r.Retransmits,
		Timeouts:    r.Timeouts,
		Events:      r.Events,
	}
	for _, pt := range r.SinglePktCDF {
		out.SinglePacketTailMs = append(out.SinglePacketTailMs, pt.Latency.Millis())
	}
	return out, nil
}
