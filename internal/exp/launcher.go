package exp

import (
	"fmt"
	"unsafe"

	"github.com/irnsim/irn/internal/cc"
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/rocev2"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/slab"
	"github.com/irnsim/irn/internal/tcpstack"
	"github.com/irnsim/irn/internal/transport"
)

// A launch is one entry of the launcher's flat table: flow index << 1 |
// side, where the side says which end of the flow the host attaches.
const (
	launchSrc = 0 // the sender, on the source host
	launchDst = 1 // the receiver, on the destination host
)

// hostLaunches is one host's stream of launches: entries
// launches[next:end] of the launcher's table, in flow order, the first of
// which is parked on the host's engine under rank.
type hostLaunches struct {
	next, end uint32
	rank      uint64
}

// supply is a shard's supply of one transport's senders or receivers:
// recycled ones on a LIFO free list, carved from the slab when that is
// empty.
type supply[T any] struct {
	slab slab.Slab[T]
	free []*T
}

// get returns a sender or receiver to Init: the last one recycled, or a
// new one.
func (s *supply[T]) get() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	return s.slab.Get()
}

// put takes back a sender the NIC has reaped or a receiver it has
// retired.
func (s *supply[T]) put(p *T) { s.free = append(s.free, p) }

// launcherShard is one shard's slice of the launcher, written only by that
// shard's goroutine during windows and read by the coordinator after the
// run: the loss counters of the senders reaped and the receivers retired
// so far, and the stores that shard's per-flow transport state comes
// from. Padded to whole 64-byte cache lines, on every GOARCH, so two
// shards' fields never share a line.
type launcherShard struct {
	launcherShardFields
	_ [(64 - unsafe.Sizeof(launcherShardFields{})%64) % 64]byte
}

// launcherShardFields are launcherShard's fields, apart so its padding can
// be sized from them.
type launcherShardFields struct {
	retransmits uint64 // of the senders reaped on this shard
	timeouts    uint64 // of those senders and of the RoCE receivers retired here

	// A sender is carved on its source host's shard and goes back to that
	// shard's free list once the NIC has reaped it; a receiver is carved
	// on its destination's shard and goes back to that shard's free list
	// once its flow has completed, the NIC keeping a transport.Retired
	// record in its place for late duplicates. So each is reused only on
	// the engine its timer belongs to, and the flows in progress, not all
	// flows of the run, set how many exist. The slabs' chunks die with
	// the launcher as separately allocated objects would, so starting a
	// flow costs a fraction of a heap allocation. Only the stores of the
	// scenario's transport ever fill.
	irnSnd  supply[flowSender]    // IRN's senders, and iWARP's
	irnRcv  supply[core.Receiver] // IRN's receivers, and iWARP's
	roceSnd supply[rocev2.Sender]
	roceRcv supply[rocev2.Receiver]
	words   slab.Slab[uint64] // SACK and arrival bitmap words
}

// flowSender is the sender of an IRN or an iWARP flow. An iWARP flow's
// NewReno window lives in the same object, so starting one allocates no
// controller; an IRN flow leaves reno unused.
type flowSender struct {
	core.Sender
	reno cc.NewReno
}

// launcher wires each flow's transports at the flow's arrival time and
// collects completions. It is a sim.Handler (arg = host) and the flows'
// transport.Completer, so launching and completing a thousand flows
// schedules no closures; per-flow state lives in index-addressed slices
// whose slots are each written by exactly one shard.
type launcher struct {
	s      Scenario
	net    *fabric.Network
	bdpCap int
	minRTT sim.Duration
	// idBase is the flow ID below flow 0's: the kv service's QPs, when the
	// run carries it, take flow IDs 1…idBase, so flow i is idBase+i+1.
	idBase int

	flows []transport.Flow
	// hosts[h] is host h's launch stream, advanced by h's shard; launches
	// holds every host's entries, host after host.
	hosts    []hostLaunches
	launches []uint32
	// cols[k] is shard k's streaming collector: each completion folds
	// into the collector of the shard owning the flow's destination as it
	// happens, so a run holds O(shards) metric state instead of a
	// per-flow record slice. The coordinator merges them in shard order
	// after the run; every merged aggregate is integer-derived, so the
	// fold is bit-identical for any shard count.
	cols  []*metrics.Collector
	shard []launcherShard
	// incastFlows is how many of flows, from the first, are the incast's.
	incastFlows int
	// done counts finished flows, each on its destination's shard.
	done sim.Completion
}

// stream parks one launch event per host: the host's ends of all flows
// form a stream in flow order, of which only the next is queued. The
// table is built by counting and then filling, in two allocations and
// 8 bytes per flow. Each host reserves one rank per launch from its clock
// here, before the kv service draws any, so every launch keeps the
// (at, rank) key it would have if queued on its own at setup, flow by
// flow. The stream needs each host's entries in nondecreasing Start
// order — incast flows start at 0 and come first, Poisson arrivals are
// cumulative — and stream panics naming the host and the flow where that
// does not hold. It returns the last arrival.
func (l *launcher) stream(hosts int) (last sim.Time) {
	l.hosts = make([]hostLaunches, hosts)
	for i := range l.flows {
		l.hosts[l.flows[i].Src].end++
		l.hosts[l.flows[i].Dst].end++
	}
	var off uint32
	for h := range l.hosts {
		hl := &l.hosts[h]
		n := hl.end
		hl.next, hl.end = off, off
		off += n
	}
	l.launches = make([]uint32, off)
	for i := range l.flows {
		fl := &l.flows[i]
		l.push(fl.Src, i, launchSrc)
		l.push(fl.Dst, i, launchDst)
		last = max(last, fl.Start)
	}
	for h := range l.hosts {
		hl := &l.hosts[h]
		hl.rank = l.net.Clock(packet.NodeID(h)).Reserve(int(hl.end - hl.next))
		l.park(packet.NodeID(h))
	}
	return last
}

// push appends flow i's side to host h's stream.
func (l *launcher) push(h packet.NodeID, i int, side uint32) {
	hl := &l.hosts[h]
	if hl.end > hl.next {
		prev := &l.flows[l.launches[hl.end-1]>>1]
		if l.flows[i].Start < prev.Start {
			panic(fmt.Sprintf("exp: scenario %q: host %d: flow %d starts at %v, before the host's previous flow %d at %v",
				l.s.Name, h, l.flows[i].ID, l.flows[i].Start, prev.ID, prev.Start))
		}
	}
	l.launches[hl.end] = uint32(i)<<1 | side
	hl.end++
}

// park queues host h's next launch, if any.
func (l *launcher) park(h packet.NodeID) {
	hl := &l.hosts[h]
	if hl.next == hl.end {
		return
	}
	at := l.flows[l.launches[hl.next]>>1].Start
	l.net.EngineOf(h).ScheduleRanked(at, hl.rank, l, 0, uint64(h))
}

// HandleEvent implements sim.Handler: host arg's next launch is due.
func (l *launcher) HandleEvent(_ uint8, arg uint64) {
	h := packet.NodeID(arg)
	hl := &l.hosts[h]
	e := l.launches[hl.next]
	hl.next++
	hl.rank++
	if e&1 == launchSrc {
		l.startSender(int(e >> 1))
	} else {
		l.startReceiver(int(e >> 1))
	}
	l.park(h)
}

// reaped is the fabric's reap callback: a finished sender's counters fold
// into its shard's totals and the sender goes back on the shard's free
// list. Runs on the shard of the sender's source host. Any other source
// is not the launcher's and is left alone.
func (l *launcher) reaped(src transport.Source) {
	sh := &l.shard[l.net.ShardOf(src.Flow().Src)]
	switch snd := src.(type) {
	case *flowSender:
		sh.irnSnd.put(snd)
	case *rocev2.Sender:
		sh.roceSnd.put(snd)
	default:
		return
	}
	st := senderStats(src)
	sh.retransmits += st.Retransmits
	sh.timeouts += st.Timeouts
}

// senderStats returns the counters of src, one of the launcher's
// senders, or nil for any other source.
func senderStats(src transport.Source) *transport.SenderStats {
	switch snd := src.(type) {
	case *flowSender:
		return &snd.Stats
	case *rocev2.Sender:
		return &snd.Stats
	}
	return nil
}

// FlowDone implements transport.Completer: flow fl's last packet arrived.
// Runs on the shard owning the flow's destination host; every slot it
// writes is owned by that shard. The destination NIC retires the flow's
// receiver into a record, and the receiver goes back on the shard's free
// list: it is not touched again before its next Init.
func (l *launcher) FlowDone(fl *transport.Flow, now sim.Time) {
	k := l.net.ShardOf(fl.Dst)
	sh := &l.shard[k]
	l.cols[k].Add(metrics.FlowRecord{
		Size:         fl.Size,
		Pkts:         fl.Pkts,
		FCT:          now.Sub(fl.Start),
		Ideal:        l.net.IdealFCT(fl.Src, fl.Dst, fl.Size),
		SinglePacket: fl.Pkts == 1,
	})
	l.done.Add(k, now)
	switch rcv := l.net.NIC(fl.Dst).Retire(fl.ID).(type) {
	case *core.Receiver:
		sh.irnRcv.put(rcv)
	case *rocev2.Receiver:
		sh.timeouts += rcv.TimeoutNacks
		sh.roceRcv.put(rcv)
	}
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
		snd := sh.irnSnd.get()
		snd.Init(src, fl, l.irnParams(), ctrl, &sh.words)
		src.AttachSource(snd)
	case TransportRoCE:
		snd := sh.roceSnd.get()
		snd.Init(src, fl, l.roceParams(), ctrl)
		src.AttachSource(snd)
	case TransportTCP:
		snd := sh.irnSnd.get()
		snd.reno.Init()
		snd.Init(src, fl, tcpstack.DefaultParams(mtu), &snd.reno, &sh.words)
		src.AttachSource(snd)
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
	case TransportIRN, TransportTCP:
		p := l.irnParams()
		if s.Transport == TransportTCP {
			p = tcpstack.DefaultParams(mtu)
		}
		rcv := sh.irnRcv.get()
		rcv.Init(dst, fl, p, l, &sh.words)
		dst.AttachSink(fl.ID, rcv)
	case TransportRoCE:
		rcv := sh.roceRcv.get()
		rcv.Init(dst, fl, l.roceParams(), l)
		dst.AttachSink(fl.ID, rcv)
	}
}

// irnParams derives the IRN transport parameters from the scenario.
func (l *launcher) irnParams() core.Params {
	s := l.s
	p := core.Params{
		MTU:              mtu,
		BDPCap:           l.bdpCap,
		Recovery:         s.Recovery,
		RTOLow:           rtoLow,
		RTOHigh:          s.RTOHigh,
		RTOLowThreshold:  s.RTOLowN,
		DynamicRTO:       s.DynamicRTO,
		NackThreshold:    s.NackThreshold,
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
		MTU:     mtu,
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
		cfg := cc.DefaultTimelyConfig(s.Gbps, minRTT)
		cfg.LossBackoff = s.BackoffOnLoss
		return cc.NewTimely(cfg)
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
