// Package kv is a replicated key-value service running end-to-end on the
// simulated RDMA fabric: one leader and f followers, an RPC layer over
// internal/verbs with two wire variants (send/recv through an SRQ-backed
// server, and RDMA-write-with-immediate into per-client rings),
// leader-driven replication (the log entry is WRITTEN to every follower
// and commits on quorum acks), and an explicit client-side robustness
// policy — per-request timeouts, bounded retries with exponential
// backoff and deterministic jitter, and graceful degradation to
// read-only service when the leader loses its quorum.
//
// The service exists to measure robustness: the experiment harness
// drives open-loop client load against the replica group while chaos
// schedules flap, drain, and brown out the leader's links, and reports
// per-phase availability (fraction of requests answered within an SLO),
// commit-latency histograms, and retry/timeout/give-up counts for IRN
// versus RoCE+PFC go-back-N transports.
//
// Everything is deterministic: request arrivals, keys, and backoff
// jitter derive from sim.DeriveSeed streams; all cross-host interaction
// rides the fabric's canonical (time, rank) event order; and per-client
// state merges in client-index order — so a rerun under one seed is
// bit-identical. The service runs serially, on a single-shard fabric.
package kv

import (
	"fmt"

	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// Mode selects the RPC wire variant.
type Mode uint8

// RPC wire variants.
const (
	// ModeSend carries requests as two-sided SEND messages into the
	// leader's shared receive queue (SRQ-backed server; responses are
	// SENDs back into client-posted receive buffers).
	ModeSend Mode = iota
	// ModeWriteImm carries requests as RDMA WRITE-with-immediate into a
	// per-client ring in leader memory (responses likewise write a
	// per-client response ring on the client).
	ModeWriteImm
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeWriteImm {
		return "writeimm"
	}
	return "send"
}

// Phase is a named absolute time window, mirrored from the chaos
// schedule (fault.Schedule.Windows): requests bucket into the phase
// their *scheduled issue time* falls in, so availability can be reported
// per chaos phase. A zero To is open-ended.
type Phase struct {
	Name string
	From sim.Time
	To   sim.Time
}

// Options parameterizes one kv run. The zero value is not runnable;
// WithDefaults fills every unset knob.
type Options struct {
	// Requests is the total request count across all clients; zero
	// disables the kv scenario entirely (the experiment harness keys on
	// it).
	Requests  int
	Clients   int
	Followers int
	Mode      Mode

	ValueBytes  int     // Put payload size
	KeySpace    int     // keys drawn uniformly from [0, KeySpace)
	PutFraction float64 // fraction of requests that are Puts

	// Client robustness policy.
	SLO            sim.Duration // a request answered within this is "available"
	RequestTimeout sim.Duration // per-attempt timeout
	BackoffBase    sim.Duration // backoff after attempt k is base·2^k, jittered ±50%
	MaxRetries     int          // attempts beyond the first before giving up

	// QuorumTimeout is how long the oldest uncommitted entry may age
	// before the leader degrades to read-only service.
	QuorumTimeout sim.Duration

	// Open-loop arrival process: per-client exponential interarrivals
	// with mean IssueGap, starting at IssueStart.
	IssueStart sim.Time
	IssueGap   sim.Duration

	// Phases labels time windows for per-phase availability reporting.
	Phases []Phase
}

// WithDefaults fills unset fields with the standard configuration.
func (o Options) WithDefaults() Options {
	if o.Clients == 0 {
		o.Clients = 6
	}
	if o.Followers == 0 {
		o.Followers = 2
	}
	if o.ValueBytes == 0 {
		o.ValueBytes = 2000
	}
	if o.KeySpace == 0 {
		o.KeySpace = 64
	}
	if o.PutFraction == 0 {
		o.PutFraction = 0.5
	}
	if o.SLO == 0 {
		o.SLO = 150 * sim.Microsecond
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 100 * sim.Microsecond
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 40 * sim.Microsecond
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.QuorumTimeout == 0 {
		o.QuorumTimeout = 150 * sim.Microsecond
	}
	if o.IssueStart == 0 {
		o.IssueStart = sim.Time(20 * sim.Microsecond)
	}
	if o.IssueGap == 0 {
		o.IssueGap = 50 * sim.Microsecond
	}
	return o
}

// Validate reports options no run can take — a negative count, size or
// time, a Put fraction outside [0, 1], an unknown Mode — or a replica
// group whose leader and followers outnumber the fabric's hosts.
func (o Options) Validate(hosts int) error {
	o = o.WithDefaults()
	switch {
	case min(o.Requests, o.Clients, o.Followers, o.ValueBytes, o.KeySpace, o.MaxRetries) < 0:
		return fmt.Errorf("kv: a count or size is negative in %+v", o)
	case min(o.SLO, o.RequestTimeout, o.BackoffBase, o.QuorumTimeout, o.IssueGap, sim.Duration(o.IssueStart)) < 0,
		max(o.SLO, o.RequestTimeout, o.BackoffBase, o.QuorumTimeout) > sim.Duration(sim.MaxTime/64),
		float64(o.IssueStart)+64*float64(o.Requests)*float64(o.IssueGap) > float64(sim.MaxTime):
		return fmt.Errorf("kv: a time is negative or past the simulator's clock in %+v", o)
	case !(o.PutFraction >= 0 && o.PutFraction <= 1):
		return fmt.Errorf("kv: Put fraction %v outside [0,1]", o.PutFraction)
	case o.Mode > ModeWriteImm:
		return fmt.Errorf("kv: unknown mode %d", o.Mode)
	case 1+o.Followers > hosts:
		return fmt.Errorf("kv: a leader and %d followers need %d hosts, the fabric has %d", o.Followers, 1+o.Followers, hosts)
	}
	return nil
}

// Placement pins the replica group and clients to hosts.
type Placement struct {
	Leader    packet.NodeID
	Followers []packet.NodeID
	Clients   []packet.NodeID
}

// Place spreads a replica group and clients across a host list laid out
// pod-major (hostsPerPod consecutive hosts per pod, the fat-tree
// convention): the leader takes the first host of pod 0, follower j the
// first host of pod j+1, and clients fill remaining hosts round-robin
// across pods — so client↔leader and replication traffic crosses the
// core, where the chaos schedules strike. The replicas need a host each
// (Options.Validate is the check for callers that can report an error);
// clients share hosts once the free ones run out.
func Place(hosts []packet.NodeID, hostsPerPod, followers, clients int) Placement {
	if 1+followers > len(hosts) {
		panic(fmt.Sprintf("kv: Place: %d hosts cannot hold a leader and %d followers", len(hosts), followers))
	}
	if hostsPerPod <= 0 {
		hostsPerPod = 1
	}
	pods := (len(hosts) + hostsPerPod - 1) / hostsPerPod
	pl := Placement{Leader: hosts[0]}
	used := map[packet.NodeID]bool{pl.Leader: true}
	for j := 0; j < followers; j++ {
		idx := ((j + 1) * hostsPerPod) % len(hosts)
		for used[hosts[idx]] {
			idx = (idx + 1) % len(hosts)
		}
		used[hosts[idx]] = true
		pl.Followers = append(pl.Followers, hosts[idx])
	}
	next := make([]int, pods)
	for len(pl.Clients) < clients {
		progress := false
		for p := 0; p < pods && len(pl.Clients) < clients; p++ {
			for next[p] < hostsPerPod {
				i := p*hostsPerPod + next[p]
				next[p]++
				if i >= len(hosts) || used[hosts[i]] {
					continue
				}
				used[hosts[i]] = true
				pl.Clients = append(pl.Clients, hosts[i])
				progress = true
				break
			}
		}
		if !progress {
			// More clients than free hosts: share hosts round-robin.
			pl.Clients = append(pl.Clients, hosts[len(pl.Clients)%len(hosts)])
		}
	}
	return pl
}

// Stats are the client-side robustness counters, summed across clients
// in client-index order.
type Stats struct {
	Issued    uint64 // requests handed to clients
	Resolved  uint64 // requests that reached a terminal outcome
	Committed uint64 // Puts acknowledged by a quorum
	GetsOK    uint64 // Gets answered (found or not-found)
	WithinSLO uint64 // successful requests answered within the SLO
	Retries   uint64 // resends after a per-attempt timeout
	Timeouts  uint64 // per-attempt timeouts observed
	GiveUps   uint64 // requests abandoned after MaxRetries
	ReadOnly  uint64 // Puts rejected by a degraded (quorum-less) leader
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Issued += o.Issued
	s.Resolved += o.Resolved
	s.Committed += o.Committed
	s.GetsOK += o.GetsOK
	s.WithinSLO += o.WithinSLO
	s.Retries += o.Retries
	s.Timeouts += o.Timeouts
	s.GiveUps += o.GiveUps
	s.ReadOnly += o.ReadOnly
}

// PhaseStat is availability bucketed by chaos phase name: of the
// requests issued during windows with this name, how many were answered
// within the SLO. Bucket 0 ("steady") collects requests issued outside
// every labeled window.
type PhaseStat struct {
	Name      string
	Issued    uint64
	WithinSLO uint64
}

// Report is the run's full kv result: aggregate counters, latency
// sketches (the streaming histograms the rest of the harness uses), and
// per-phase availability.
type Report struct {
	Mode      string
	Clients   int
	Followers int

	Stats

	// DegradedEnters counts leader transitions into read-only service;
	// LeaderReadOnly counts Put rejections it issued while degraded.
	DegradedEnters uint64
	LeaderReadOnly uint64

	// Availability is WithinSLO / Resolved.
	Availability float64

	// Commit sketches committed-Put latency (scheduled issue → commit
	// ack); RPC sketches all successful request latencies.
	Commit *metrics.Histogram
	RPC    *metrics.Histogram

	CommitP50 sim.Duration
	CommitP99 sim.Duration

	Phases []PhaseStat
}
