// Keyvalue: a replicated RDMA key-value service in the style the paper's
// workload motivates ("small RPCs such as those generated by RDMA based
// key-value stores", §4.1) — but run as a real distributed system on the
// simulated fabric rather than a two-QP pipe. A leader and two followers
// are placed in distinct pods of a k=4 fat-tree; six clients issue Gets
// and Puts over RDMA RPC while a flap storm blinks the leader's uplinks.
// Puts replicate to the followers (RDMA WRITE log entries, commit on
// quorum acks); clients ride per-request timeouts with exponential
// backoff. IRN's selective retransmission repairs the storm losses fast
// enough that every request resolves — the per-phase availability line
// shows the SLO dips under each storm and the recovery between them.
//
// Both RPC wire variants run back-to-back: send/recv into SRQ-backed
// buffers, then WRITE-with-immediate into per-client response rings.
package main

import (
	"fmt"

	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/verbs"
)

func main() {
	for _, mode := range []kv.Mode{kv.ModeSend, kv.ModeWriteImm} {
		run(mode)
	}
}

func run(mode kv.Mode) {
	tree := topo.NewFatTree(4) // 16 hosts, 4 per pod

	// Three storm/recover cycles blinking two of the leader pod's
	// uplinks while the clients are issuing.
	sched := fault.NewSchedule("leader-flap").At(sim.Time(60 * sim.Microsecond))
	for c := 0; c < 3; c++ {
		sched.Phase(fmt.Sprintf("storm%d", c), 48*sim.Microsecond,
			fault.Blink(fault.Sample(fault.Uplinks(0), 2, uint64(101+c)), 3, 6*sim.Microsecond))
		sched.Quiet(fmt.Sprintf("recover%d", c), 48*sim.Microsecond)
	}
	spec := sched.MustCompile(tree)
	model, err := fault.New(spec, len(tree.Links()), 7)
	if err != nil {
		panic(err)
	}

	eng := sim.NewEngine()
	cfg := fabric.DefaultConfig()
	cfg.Faults = model
	net := fabric.New(eng, tree, cfg)

	hosts := make([]packet.NodeID, tree.Hosts())
	for i := range hosts {
		hosts[i] = packet.NodeID(i)
	}
	opts := kv.Options{Requests: 60, Mode: mode, Phases: sched.Windows()}.WithDefaults()
	pl := kv.Place(hosts, 4, opts.Followers, opts.Clients)

	svc := kv.New(net, pl, verbs.DefaultConfig(), opts, 7)
	svc.Start()
	eng.RunUntil(sim.Time(100 * sim.Millisecond))

	rep := svc.Report()
	retx, timeouts, rnr, _ := svc.TransportStats()
	fmt.Printf("=== %s RPC: leader host %d, followers %v, %d clients ===\n",
		rep.Mode, pl.Leader, pl.Followers, rep.Clients)
	fmt.Printf("requests: %d issued, %d resolved (%d committed Puts, %d Gets)\n",
		rep.Issued, rep.Resolved, rep.Committed, rep.GetsOK)
	fmt.Printf("availability: %.3f within the %v SLO; commit p50 %v, p99 %v\n",
		rep.Availability, opts.SLO, rep.CommitP50, rep.CommitP99)
	fmt.Printf("robustness: %d client retries, %d timeouts, %d give-ups, %d read-only rejections\n",
		rep.Retries, rep.Timeouts, rep.GiveUps, rep.ReadOnly)
	fmt.Printf("transport: %d retransmits, %d RTOs, %d RNR NACKs — storm losses repaired selectively\n",
		retx, timeouts, rnr)
	fmt.Print("phase availability:")
	for _, p := range rep.Phases {
		if p.Issued == 0 {
			continue
		}
		fmt.Printf(" %s=%.2f", p.Name, float64(p.WithinSLO)/float64(p.Issued))
	}
	fmt.Print("\n\n")
}
