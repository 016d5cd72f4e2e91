package exp

import (
	"github.com/irnsim/irn/internal/cc"
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/rocev2"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/slab"
	"github.com/irnsim/irn/internal/tcpstack"
	"github.com/irnsim/irn/internal/transport"
)

// launcher event kinds: attach flow arg's sender (on the source host's
// shard) or its receiver (on the destination host's shard).
const (
	launchSrc uint8 = iota
	launchDst
)

// launcherShard is one shard's slice of the launcher: the latest incast
// completion, written only by that shard's goroutine during windows and
// read by the coordinator after the run, and the slabs that shard carves
// per-flow transport state from. Padded so two shards' fields never share
// a cache line.
type launcherShard struct {
	incastDone sim.Time // latest incast completion seen on this shard

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

	_ [2]uint64 // to 192 bytes
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
	// idBase is the flow ID below flow 0's: the kv service's QPs, when the
	// run carries it, take flow IDs 1…idBase, so flow i is idBase+i+1.
	idBase int

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
	// done counts finished flows, each on its destination's shard.
	done sim.Completion
}

// HandleEvent implements sim.Handler: flow arg arrives.
func (l *launcher) HandleEvent(kind uint8, arg uint64) {
	if kind == launchSrc {
		l.startSender(int(arg))
	} else {
		l.startReceiver(int(arg))
	}
}

// FlowDone implements transport.Completer: flow fl's last packet arrived.
// Runs on the shard owning the flow's destination host; every slot it
// writes is owned by that shard.
func (l *launcher) FlowDone(fl *transport.Flow, now sim.Time) {
	i := int(fl.ID) - l.idBase - 1
	k := l.net.ShardOf(fl.Dst)
	l.cols[k].Add(metrics.FlowRecord{
		Size:         fl.Size,
		Pkts:         fl.Pkts,
		FCT:          now.Sub(fl.Start),
		Ideal:        l.net.IdealFCT(fl.Src, fl.Dst, fl.Size),
		SinglePacket: fl.Pkts == 1,
	})
	if sh := &l.shard[k]; i < l.incastFlows && now > sh.incastDone {
		sh.incastDone = now
	}
	l.done.Add(k, l.net.EngineOf(fl.Dst), now)
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
