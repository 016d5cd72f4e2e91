package main

import (
	"fmt"
	"reflect"

	"github.com/irnsim/irn/internal/cc"
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/rocev2"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/verbs"
	flowgen "github.com/irnsim/irn/internal/workload"
)

// The probe launcher is the benchmark's own wiring of a scenario out of
// the layers' public APIs — topo, fabric, workload, core/rocev2, cc,
// metrics, kv — so that timing decorators can sit on the boundaries
// between them without touching the program. It mirrors the serial path of
// exp.Worker.Run for the scenario subset the benchmark uses; the package
// test holds it to the same packet, flow and event counts as the real
// entry point.

// The paper-default constants exp.Scenario.normalize fills in; the probe
// supports no scenario that overrides them.
const (
	probeGbps    = 40
	probeProp    = 2 * sim.Microsecond
	probeMTU     = 1000
	probeRTOLow  = 100 * sim.Microsecond
	probeRTOHigh = 320 * sim.Microsecond
	probeRTOLowN = 3
	probeGrace   = 500 * sim.Millisecond
)

// probeScenario rejects scenarios outside the probe's subset and fills the
// defaults of the fields inside it.
func probeScenario(s exp.Scenario) (exp.Scenario, error) {
	subset := exp.Scenario{
		Name: s.Name, Arity: s.Arity, PFC: s.PFC, Transport: s.Transport, CC: s.CC,
		Load: s.Load, Workload: s.Workload, NumFlows: s.NumFlows, Seed: s.Seed,
		KV: s.KV, Faults: s.Faults,
	}
	if !reflect.DeepEqual(s, subset) {
		return s, fmt.Errorf("probe: scenario %q sets a field the probe launcher does not wire", s.Name)
	}
	if s.Transport == exp.TransportTCP || s.CC == exp.CCAIMD || s.CC == exp.CCDCTCP {
		return s, fmt.Errorf("probe: scenario %q: transport %v / cc %v not wired", s.Name, s.Transport, s.CC)
	}
	if s.Arity == 0 {
		s.Arity = 6
	}
	if s.Load == 0 {
		s.Load = 0.7
	}
	if s.NumFlows == 0 && s.KV.Requests == 0 {
		s.NumFlows = 1000
	}
	if s.KV.Requests > 0 {
		s.KV = s.KV.WithDefaults()
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s, nil
}

// probe owns one engine and one fabric, like exp.Worker, so a warm-up run
// can precede the measured one on the same structures.
type probe struct {
	tr    *tracer
	arity int
	pfc   bool
	cc    exp.CCKind
	rate  fabric.Rate
	eng   *sim.Engine
	top   *topo.FatTree
	net   *fabric.Network
}

// probePhases are the coarse span durations of one probe run, in seconds.
type probePhases struct {
	WorkloadS, RunS, FoldS float64
}

// newProbe builds the topology and fabric for s's structure, cold, under
// the spans setup.topo and setup.fabric, and returns their durations.
func newProbe(s exp.Scenario, tr *tracer) (p *probe, topoS, fabricS float64, err error) {
	s, err = probeScenario(s)
	if err != nil {
		return nil, 0, 0, err
	}
	p = &probe{tr: tr, arity: s.Arity, pfc: s.PFC, cc: s.CC, rate: fabric.Gbps(probeGbps), eng: sim.NewEngine()}
	topoS = tr.coarse("setup.topo", func() { p.top = topo.NewFatTree(s.Arity) })

	bdp := fabric.BDPBytes(p.rate, probeProp, topo.FatTreeLongestPathHops)
	linkBDP := fabric.BDPBytes(p.rate, probeProp, 1)
	wire := probeMTU + packet.DataHeader
	cfg := fabric.Config{
		Rate:          p.rate,
		Prop:          probeProp,
		BufferBytes:   2 * bdp,
		PFC:           s.PFC,
		PFCHeadroom:   linkBDP + 3*wire,
		PFCHysteresis: 2 * wire,
		MTU:           probeMTU,
		Seed:          s.Seed,
	}
	if s.CC == exp.CCDCQCN {
		cfg.ECN = fabric.ECNConfig{Enabled: true, KMin: 40_000, KMax: 160_000, PMax: 0.2}
	}
	fabricS = tr.coarse("setup.fabric", func() { p.net = fabric.New(p.eng, p.top, cfg) })
	return p, topoS, fabricS, nil
}

// run executes s on the probe's fabric. With decorate on, every transport,
// controller and completer the launcher attaches is wrapped in its timing
// decorator; off, the wiring is bare. label prefixes the coarse span names
// so a warm-up run is told apart in the trace file.
func (p *probe) run(s exp.Scenario, decorate bool, label string) (simOut, probePhases, error) {
	s, err := probeScenario(s)
	if err != nil {
		return simOut{}, probePhases{}, err
	}
	if s.Arity != p.arity || s.PFC != p.pfc || s.CC != p.cc {
		return simOut{}, probePhases{}, fmt.Errorf("probe: scenario %q does not fit the fabric this probe built", s.Name)
	}
	var faults *fault.Model
	if s.Faults.Enabled() {
		faults, err = fault.New(s.Faults, len(p.top.Links()), s.Seed)
		if err != nil {
			return simOut{}, probePhases{}, fmt.Errorf("probe: scenario %q: %w", s.Name, err)
		}
	}
	p.eng.Reset()
	p.net.Reset(s.Seed, faults)

	var ph probePhases
	var out simOut
	if s.KV.Requests > 0 {
		out = p.runKV(s, &ph, label)
	} else {
		out = p.runFlows(s, decorate, &ph, label)
	}
	out.Events = p.eng.Executed()
	out.SimTime = p.eng.Now()
	out.Net = p.net.Stats()
	out.Census = p.net.Census()
	out.InFlight = p.net.InFlightPackets()
	out.PoolLive = p.net.PoolLive()
	out.CtrlBacklog = p.net.CtrlBacklog()
	return out, ph, nil
}

// windows runs the engine through the conservative window protocol exactly
// as exp does for a serial run.
func (p *probe) windows(deadline sim.Time, done func() bool, lastDone func() sim.Time, widen func(int) bool) {
	sim.RunWindows(sim.WindowConfig{
		Engines:   []*sim.Engine{p.eng},
		Lookahead: p.net.Lookahead(),
		Deadline:  deadline,
		Drain:     p.net.DrainAll,
		Done:      done,
		Horizon:   func() sim.Time { return lastDone().Add(p.net.WindowSlack()) },
		Widen:     widen,
	})
}

func (p *probe) runKV(s exp.Scenario, ph *probePhases, label string) simOut {
	var svc *kv.Service
	var lastIssue sim.Time
	ph.WorkloadS = p.tr.coarse(label+"setup.workload", func() {
		hosts := make([]packet.NodeID, p.top.Hosts())
		for i := range hosts {
			hosts[i] = packet.NodeID(i)
		}
		hostsPerPod := (s.Arity / 2) * (s.Arity / 2)
		pl := kv.Place(hosts, hostsPerPod, s.KV.Followers, s.KV.Clients)
		qcfg := verbs.Config{
			MTU:      probeMTU,
			BDPCap:   p.net.BDPCap(),
			RTOLow:   probeRTOLow,
			RTOHigh:  probeRTOHigh,
			RTOLowN:  probeRTOLowN,
			RNRDelay: 20 * sim.Microsecond,
			GoBackN:  s.Transport == exp.TransportRoCE,
		}
		if qcfg.GoBackN {
			qcfg.RTOLow = probeRTOHigh
		}
		svc = kv.New(p.net, pl, qcfg, s.KV, s.Seed)
		lastIssue = svc.Start()
	})
	ph.RunS = p.tr.coarse(label+"run", func() {
		p.windows(lastIssue.Add(probeGrace), svc.Done, svc.LastResolve, svc.Widen)
	})
	var out simOut
	ph.FoldS = p.tr.coarse(label+"fold", func() {
		agg := &metrics.Collector{}
		out.Summary = agg.Summarize()
		out.FCTSketch = agg.FCTHistogram()
		out.Retransmits, out.Timeouts, _, _ = svc.TransportStats()
		out.KV = svc.Report()
	})
	return out
}

// Launcher event kinds, as in exp: attach flow arg's sender or receiver.
const (
	launchSrc uint8 = iota
	launchDst
)

// probeLauncher attaches each flow's transports at its arrival time and
// collects completions: a sim.Handler (arg = flow index) and the flows'
// transport.Completer.
type probeLauncher struct {
	p        *probe
	s        exp.Scenario
	decorate bool
	bdpCap   int
	minRTT   sim.Duration

	specs []flowgen.Spec
	flows []*transport.Flow
	irn   []*core.Sender
	roce  []*rocev2.Sender
	rcvs  []*rocev2.Receiver
	col   metrics.Collector
	// completer is the launcher itself, or its timing decorator.
	completer transport.Completer

	done     int
	lastDone sim.Time
	stopAt   int // done count at which a widened window self-stops; 0 = unarmed
}

func (p *probe) runFlows(s exp.Scenario, decorate bool, ph *probePhases, label string) simOut {
	l := &probeLauncher{
		p: p, s: s, decorate: decorate, bdpCap: p.net.BDPCap(),
		minRTT: sim.Duration(2*p.top.LongestPathHops()) * (probeProp + p.rate.Serialize(probeMTU+packet.DataHeader)),
	}
	l.completer = l
	if decorate {
		l.completer = &tracedCompleter{inner: l, t: p.tr}
	}
	var lastArrival sim.Time
	ph.WorkloadS = p.tr.coarse(label+"setup.workload", func() {
		var dist flowgen.SizeDist
		switch s.Workload {
		case exp.WorkloadUniform:
			dist = flowgen.NewUniform()
		case exp.WorkloadWebSearch:
			dist = flowgen.NewWebSearch()
		case exp.WorkloadHadoop:
			dist = flowgen.NewHadoop()
		default:
			dist = flowgen.NewHeavyTailed()
		}
		l.specs = flowgen.Generate(flowgen.PoissonConfig{
			Hosts:         p.top.Hosts(),
			Load:          s.Load,
			RatePsPerByte: int64(p.rate),
			MTU:           probeMTU,
			HeaderBytes:   packet.DataHeader,
			NumFlows:      s.NumFlows,
			Dist:          dist,
			Seed:          s.Seed,
		})
		n := len(l.specs)
		l.flows = make([]*transport.Flow, n)
		l.irn = make([]*core.Sender, n)
		l.roce = make([]*rocev2.Sender, n)
		l.rcvs = make([]*rocev2.Receiver, n)
		for i, spec := range l.specs {
			l.flows[i] = &transport.Flow{
				ID:    packet.FlowID(i + 1),
				Src:   spec.Src,
				Dst:   spec.Dst,
				Size:  spec.Size,
				Pkts:  transport.NumPackets(spec.Size, probeMTU),
				Start: spec.Start,
			}
			if spec.Start > lastArrival {
				lastArrival = spec.Start
			}
			p.eng.ScheduleEventFrom(p.net.Clock(spec.Src), spec.Start, l, launchSrc, uint64(i))
			p.eng.ScheduleEventFrom(p.net.Clock(spec.Dst), spec.Start, l, launchDst, uint64(i))
		}
	})
	ph.RunS = p.tr.coarse(label+"run", func() {
		p.windows(lastArrival.Add(probeGrace),
			func() bool { return l.done == len(l.specs) },
			func() sim.Time { return l.lastDone },
			func(int) bool { l.stopAt = len(l.specs); return true })
	})
	var out simOut
	ph.FoldS = p.tr.coarse(label+"fold", func() {
		for i, fl := range l.flows {
			if !fl.Finished {
				l.col.AddIncomplete()
			}
			if snd := l.irn[i]; snd != nil {
				out.Retransmits += snd.Stats.Retransmits
				out.Timeouts += snd.Stats.Timeouts
			}
			if snd := l.roce[i]; snd != nil {
				out.Retransmits += snd.Stats.Retransmits
			}
			if rcv := l.rcvs[i]; rcv != nil {
				out.Timeouts += rcv.TimeoutNacks
			}
		}
		out.Summary = l.col.Summarize()
		out.FCTSketch = l.col.FCTHistogram()
	})
	return out
}

// HandleEvent implements sim.Handler: flow arg arrives.
func (l *probeLauncher) HandleEvent(kind uint8, arg uint64) {
	if kind == launchSrc {
		l.startSender(int(arg))
	} else {
		l.startReceiver(int(arg))
	}
}

// FlowDone implements transport.Completer.
func (l *probeLauncher) FlowDone(fl *transport.Flow, now sim.Time) {
	spec := l.specs[int(fl.ID)-1]
	l.col.Add(metrics.FlowRecord{
		Size:         spec.Size,
		Pkts:         fl.Pkts,
		FCT:          now.Sub(spec.Start),
		Ideal:        l.p.net.IdealFCT(spec.Src, spec.Dst, spec.Size),
		SinglePacket: fl.Pkts == 1,
	})
	if now > l.lastDone {
		l.lastDone = now
	}
	l.done++
	if l.stopAt > 0 && l.done >= l.stopAt {
		// A widened window is in force and the run's Done condition just
		// turned true: stop so the barrier can evaluate it (see exp).
		l.p.eng.Stop()
	}
}

func (l *probeLauncher) controller(src *fabric.NIC, flow packet.FlowID) transport.Controller {
	var ctrl transport.Controller
	switch l.s.CC {
	case exp.CCTimely:
		ctrl = cc.NewTimely(cc.DefaultTimelyConfig(probeGbps, l.minRTT))
	case exp.CCDCQCN:
		ctrl = cc.NewDCQCN(src.Engine(), src.Clock(), cc.DefaultDCQCNConfig(probeGbps))
	default:
		return nil
	}
	if l.decorate {
		ctrl = &tracedCC{inner: ctrl, t: l.p.tr, flow: flow}
	}
	return ctrl
}

func (l *probeLauncher) startSender(i int) {
	fl := l.flows[i]
	nic := l.p.net.NIC(fl.Src)
	ctrl := l.controller(nic, fl.ID)
	var src transport.Source
	if l.s.Transport == exp.TransportRoCE {
		snd := rocev2.NewSender(nic, fl, l.roceParams(), ctrl)
		l.roce[i], src = snd, snd
	} else {
		snd := core.NewSender(nic, fl, l.irnParams(), ctrl)
		l.irn[i], src = snd, snd
	}
	if l.decorate {
		src = &tracedSource{Source: src, t: l.p.tr, flow: fl.ID}
	}
	nic.AttachSource(src)
}

func (l *probeLauncher) startReceiver(i int) {
	fl := l.flows[i]
	nic := l.p.net.NIC(fl.Dst)
	var sink transport.Sink
	if l.s.Transport == exp.TransportRoCE {
		rcv := rocev2.NewReceiver(nic, fl, l.roceParams(), l.completer)
		l.rcvs[i], sink = rcv, rcv
	} else {
		sink = core.NewReceiver(nic, fl, l.irnParams(), l.completer)
	}
	if l.decorate {
		sink = &tracedSink{inner: sink, t: l.p.tr, hops: uint64(l.p.top.PathHops(fl.Src, fl.Dst))}
	}
	nic.AttachSink(fl.ID, sink)
}

func (l *probeLauncher) irnParams() core.Params {
	p := core.DefaultParams(probeMTU, l.bdpCap)
	p.ECT = l.s.CC == exp.CCDCQCN
	return p
}

func (l *probeLauncher) roceParams() rocev2.Params {
	return rocev2.Params{
		MTU:     probeMTU,
		RTOHigh: probeRTOHigh,
		// As in exp: timeouts are off only when PFC guarantees
		// losslessness and no fault can break the guarantee.
		DisableTimeout: l.s.PFC && !l.s.Faults.Enabled(),
		PerPacketAck:   l.s.CC == exp.CCTimely,
		ECT:            l.s.CC == exp.CCDCQCN,
	}
}
