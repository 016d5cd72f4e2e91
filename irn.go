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
//	    NumFlows:  2000,
//	})
//	if err != nil {
//	    log.Fatal(err) // a Config no run can take
//	}
//	fmt.Println(result.AvgSlowdown, result.AvgFCT.Millis(), result.TailFCT.Millis())
//
// Every figure and table of the paper has a named experiment preset; see
// cmd/experiments for the full reproduction suite, and the examples/
// directory for runnable API walkthroughs (including the RDMA verbs layer
// via irn.NewQP).
package irn

import (
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/exp"
)

// The run configuration and its outcome are the experiment harness's own
// types, exported through aliases as verbs.go exports the verbs layer, so
// every field a scenario or result gains is public as it lands.

// Config describes one simulation run. The zero value reproduces the
// paper's default case: a 54-host fat-tree of 40 Gbps links with 2 µs
// propagation delay, 240 KB per-port buffers, heavy-tailed traffic at 70%
// load, IRN transport, no PFC, no explicit congestion control. The
// propagation delay, the 1000 B MTU and the 100 µs RTO_low are fixed
// (§4.1), not fields. Delays are simulation Durations (see Microseconds).
type Config = exp.Scenario

// Result summarizes a run with the paper's metrics (§4.1).
type Result = exp.Result

// Transport selects the NIC transport.
type Transport = exp.Transport

// Transports under evaluation.
const (
	// TransportIRN is the paper's contribution (§3).
	TransportIRN = exp.TransportIRN
	// TransportRoCE is the go-back-N transport of current RoCE NICs.
	TransportRoCE = exp.TransportRoCE
	// TransportIWARP is the full TCP stack in the NIC (§2.3, §4.6).
	TransportIWARP = exp.TransportTCP
)

// CongestionControl selects explicit congestion control.
type CongestionControl = exp.CCKind

// Congestion-control schemes.
const (
	CCNone   = exp.CCNone
	CCTimely = exp.CCTimely
	CCDCQCN  = exp.CCDCQCN
	CCAIMD   = exp.CCAIMD
	CCDCTCP  = exp.CCDCTCP
)

// RecoveryMode selects IRN's loss-recovery ablations (§4.3).
type RecoveryMode = core.RecoveryMode

// Recovery modes.
const (
	RecoverySACK    = core.RecoverySACK
	RecoveryGoBackN = core.RecoveryGoBackN
	RecoveryNoSACK  = core.RecoveryNoSACK
)

// WorkloadKind selects the flow-size distribution (§4.1, §4.4).
type WorkloadKind = exp.WorkloadKind

// Workloads.
const (
	WorkloadHeavyTailed = exp.WorkloadHeavyTailed
	WorkloadUniform     = exp.WorkloadUniform
	WorkloadWebSearch   = exp.WorkloadWebSearch
	WorkloadHadoop      = exp.WorkloadHadoop
)

// Run executes a configuration and returns its metrics, or, without
// running, an error naming the first field no run can take.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return exp.Run(cfg), nil
}
