package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/irnsim/irn/internal/bitmap"
	"github.com/irnsim/irn/internal/cc"
	"github.com/irnsim/irn/internal/core"
	"github.com/irnsim/irn/internal/exp"
	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/hwmodel"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/rocev2"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/tcpstack"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/verbs"
	flowgen "github.com/irnsim/irn/internal/workload"
)

// The per-layer cost ledger: one micro-driver per metric, each timing calls
// into one module's exported functions on a stated input. Inputs are fixed
// by operation count and built from constants, so the work is identical
// run to run; only the host time varies.

// ledger collects the micro-drivers' results by metric name. div shrinks
// every operation count (1 = full size; the package test uses more).
type ledger struct {
	div int
	out map[string]float64
}

// runLedger runs every micro-driver and returns metric name → value.
func runLedger(div int) map[string]float64 {
	l := &ledger{div: div, out: map[string]float64{}}
	l.simLayer()
	l.packetBitmap()
	l.topoWorkloadFault()
	l.fabricLayer()
	l.transports()
	l.ccLayer()
	l.metricsLayer()
	l.verbsLayer()
	l.kvLayer()
	l.hwmodelLayer()
	return l.out
}

// ledgerReps is how many times a micro-driver's timed body runs; the
// median is reported.
const ledgerReps = 3

// perOp times body, which performs the returned number of operations,
// ledgerReps times and returns the median host ns per operation and the
// heap allocations per operation of the last repetition.
func perOp(body func() int) (ns, allocs float64) {
	var times []float64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < ledgerReps; r++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		ops := body()
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if ops < 1 {
			panic("benchmark: ledger driver performed no operations")
		}
		times = append(times, float64(d.Nanoseconds())/float64(ops))
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	}
	return median(times), allocs
}

// seconds times body ledgerReps times and returns the median in seconds.
func seconds(body func()) float64 {
	var times []float64
	for r := 0; r < ledgerReps; r++ {
		t0 := time.Now()
		body()
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (l *ledger) n(full int) int {
	if n := full / l.div; n > 64 {
		return n
	}
	return 64
}

// ---- sim ----

// popDriver keeps a fixed event population alive: each dispatch schedules
// its successor, with the delay mix of a loaded fabric (80% within one
// link time, 15% a few hops out, 5% timer-scale).
type popDriver struct {
	eng    *sim.Engine
	delays [1024]sim.Duration
	i      int
	left   int
}

func (h *popDriver) HandleEvent(uint8, uint64) {
	if h.left > 0 {
		h.left--
		h.i++
		h.eng.AfterEvent(h.delays[h.i&1023], h, 0, 0)
	}
}

// rearmDriver re-arms eight of its timers per driving event, the way a
// sender pushes its RTO out on every packet; deadlines keep moving, so the
// timers (almost) never fire.
type rearmDriver struct {
	eng    *sim.Engine
	timers []*sim.Timer
	i      int
	left   int
}

const (
	rearmTick   uint8 = iota // the driving event
	rearmExpire              // a timer fired (no-op)
)

func (h *rearmDriver) HandleEvent(kind uint8, _ uint64) {
	if kind == rearmExpire {
		return
	}
	for k := 0; k < 8; k++ {
		h.timers[h.i%len(h.timers)].Arm(100 * sim.Microsecond)
		h.i++
	}
	if h.left--; h.left > 0 {
		h.eng.AfterEvent(1600*sim.Nanosecond, h, rearmTick, 0)
	}
}

// ticker reschedules itself every period: one event per safe window.
type ticker struct {
	eng    *sim.Engine
	period sim.Duration
}

func (t *ticker) HandleEvent(uint8, uint64) { t.eng.AfterEvent(t.period, t, 0, 0) }

func (l *ledger) simLayer() {
	const pending = 4096
	eng := sim.NewEngine()
	pop := &popDriver{eng: eng}
	rng := sim.NewRNG(1)
	for i := range pop.delays {
		switch u := rng.Float64(); {
		case u < 0.80:
			pop.delays[i] = sim.Duration(1 + rng.Intn(int(2*sim.Microsecond)))
		case u < 0.95:
			pop.delays[i] = 2*sim.Microsecond + sim.Duration(rng.Intn(int(18*sim.Microsecond)))
		default:
			pop.delays[i] = 100*sim.Microsecond + sim.Duration(rng.Intn(int(220*sim.Microsecond)))
		}
	}
	n := l.n(2_000_000)
	l.out["sim.sched_pop_ns"], _ = perOp(func() int {
		eng.Reset()
		pop.i, pop.left = 0, n
		for i := 0; i < pending; i++ {
			eng.AfterEvent(pop.delays[i&1023], pop, 0, 0)
		}
		eng.Run()
		return int(eng.Executed())
	})

	re := &rearmDriver{eng: eng}
	steps := l.n(250_000)
	l.out["sim.timer_rearm_ns"], _ = perOp(func() int {
		eng.Reset()
		re.timers = re.timers[:0]
		for i := 0; i < 256; i++ {
			re.timers = append(re.timers, sim.NewHandlerTimer(eng, nil, re, rearmExpire))
		}
		re.i, re.left = 0, steps
		eng.AfterEvent(0, re, rearmTick, 0)
		eng.Run()
		return 8 * steps
	})

	const lookahead = 2 * sim.Microsecond
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	windows := l.n(100_000)
	l.out["sim.window_barrier_ns"], _ = perOp(func() int {
		var st sim.WindowStats
		for _, e := range engs {
			e.Reset()
			e.AfterEvent(lookahead, &ticker{eng: e, period: lookahead}, 0, 0)
		}
		sim.RunWindows(sim.WindowConfig{
			Engines:      engs,
			Lookahead:    lookahead,
			Deadline:     sim.Time(sim.Duration(windows) * lookahead),
			FixedWindows: true,
			Stats:        &st,
		})
		return int(st.Barriers)
	})
}

// ---- packet, bitmap ----

func (l *ledger) packetBitmap() {
	pool := packet.NewPool()
	n := l.n(5_000_000)
	l.out["packet.pool_roundtrip_ns"], _ = perOp(func() int {
		for i := 0; i < n; i++ {
			pool.Release(pool.NewData(1, 0, 1, packet.PSN(i), 1000, false))
		}
		return n
	})

	l.out["bitmap.inorder_ns"], _ = perOp(func() int {
		b := bitmap.New(128)
		for i := 0; i < n; i++ {
			if _, err := b.Set(uint32(i)); err != nil {
				panic(err)
			}
			b.Advance(1)
		}
		return n
	})

	// A SACK bitmap mid-recovery: everything acked but every eighth packet.
	holes := bitmap.New(128)
	for i := 0; i < holes.Cap(); i++ {
		if i%8 != 0 {
			if _, err := holes.Set(uint32(i)); err != nil {
				panic(err)
			}
		}
	}
	l.out["bitmap.sack_scan_ns"], _ = perOp(func() int {
		from, sum := 1, 0
		for i := 0; i < n; i++ {
			off := holes.NextZero(from)
			sum += off
			if from = off + 1; from >= holes.Cap() {
				from = 1
			}
		}
		sink = sum
		return n
	})
}

// sink keeps results the compiler could otherwise discard.
var sink int

// ---- topo, workload, fault ----

func (l *ledger) topoWorkloadFault() {
	var ft *topo.FatTree
	l.out["topo.build_k16_s"] = seconds(func() { ft = topo.NewFatTree(16) })

	// Next hops asked the way switches ask: from every switch in turn
	// toward a host that strides across the pods.
	hosts, nodes := ft.Hosts(), len(ft.Nodes())
	n := l.n(2_000_000)
	l.out["topo.nexthops_ns"], _ = perOp(func() int {
		sw, dst, sum := hosts, 0, 0
		for i := 0; i < n; i++ {
			sum += len(ft.NextHops(packet.NodeID(sw), packet.NodeID(dst)))
			if sw++; sw == nodes {
				sw = hosts
			}
			if dst += 67; dst >= hosts {
				dst -= hosts
			}
		}
		sink = sum
		return n
	})

	flows := l.n(200_000)
	l.out["workload.gen_ns_per_flow"], _ = perOp(func() int {
		specs := flowgen.Generate(flowgen.PoissonConfig{
			Hosts: 1024, Load: 0.6, RatePsPerByte: int64(fabric.Gbps(40)), MTU: 1000,
			HeaderBytes: packet.DataHeader, NumFlows: flows, Dist: flowgen.NewHadoop(), Seed: 1,
		})
		return len(specs)
	})

	model := fault.MustNew(fault.Spec{LossRate: 0.01}, len(ft.Links()), 1)
	link := model.Dir(0, false)
	n = l.n(5_000_000)
	l.out["fault.link_drop_ns"], _ = perOp(func() int {
		drops := 0
		for i := 0; i < n; i++ {
			if link.DropLoss() {
				drops++
			}
		}
		sink = drops
		return n
	})

	// The kv_chaos schedule at full size: build, compile and bind to links.
	k6 := topo.NewFatTree(6)
	requests := l.n(100_000)
	l.out["fault.compile_s"] = seconds(func() {
		spec := chaosSchedule(k6, requests, 1).MustCompile(k6)
		fault.MustNew(spec, len(k6.Links()), 1)
	})
}

// ---- fabric ----

// blaster is a source that streams pool-drawn data packets as fast as the
// NIC asks, with no transport behind it.
type blaster struct {
	pool    *packet.Pool
	flow    *transport.Flow
	payload int
	sent    int
}

func (b *blaster) Flow() *transport.Flow                  { return b.flow }
func (b *blaster) HasData(sim.Time) (bool, sim.Time)      { return b.sent < b.flow.Pkts, 0 }
func (b *blaster) HandleControl(*packet.Packet, sim.Time) {}
func (b *blaster) Done() bool                             { return b.sent >= b.flow.Pkts }

func (b *blaster) NextPacket(now sim.Time) *packet.Packet {
	p := b.pool.NewData(b.flow.ID, b.flow.Src, b.flow.Dst, packet.PSN(b.sent), b.payload, b.sent == b.flow.Pkts-1)
	p.SentAt = now
	b.sent++
	return p
}

// nullSink discards data packets.
type nullSink struct{}

func (nullSink) HandleData(*packet.Packet, sim.Time) {}

// starHops blasts pkts packets of payload bytes down each (src, dst) pair of
// a star and returns host ns per packet-hop (two hops per delivery).
func starHops(hosts int, pairs [][2]int, pkts, payload int, pfc bool) float64 {
	eng := sim.NewEngine()
	cfg := fabric.DefaultConfig()
	cfg.PFC = pfc
	net := fabric.New(eng, topo.NewStar(hosts), cfg)
	ns, _ := perOp(func() int {
		eng.Reset()
		net.Reset(1, nil)
		for i, pr := range pairs {
			id := packet.FlowID(i + 1)
			fl := &transport.Flow{ID: id, Src: packet.NodeID(pr[0]), Dst: packet.NodeID(pr[1]), Size: pkts * payload, Pkts: pkts}
			net.NIC(fl.Dst).AttachSink(id, nullSink{})
			net.NIC(fl.Src).AttachSource(&blaster{pool: net.Pool(), flow: fl, payload: payload})
		}
		eng.Run()
		st := net.Stats()
		if want := uint64(len(pairs) * pkts); st.Delivered != want {
			panic(fmt.Sprintf("benchmark: fabric hop driver delivered %d of %d packets (drops %d)", st.Delivered, want, st.Drops))
		}
		if pfc && st.PauseFrames == 0 {
			panic("benchmark: fabric PFC hop driver never paused")
		}
		return 2 * int(st.Delivered)
	})
	return ns
}

func (l *ledger) fabricLayer() {
	ft := topo.NewFatTree(16)
	eng := sim.NewEngine()
	cfg := fabric.DefaultConfig()
	var net *fabric.Network
	l.out["fabric.build_k16_s"] = seconds(func() {
		eng.Reset()
		net = fabric.New(eng, ft, cfg)
	})
	l.out["fabric.reset_k16_s"] = seconds(func() {
		eng.Reset()
		net.Reset(2, nil)
	})

	// Eight disjoint pairs: every link runs at line rate, nothing queues.
	var disjoint [][2]int
	for i := 0; i < 8; i++ {
		disjoint = append(disjoint, [2]int{i, i + 8})
	}
	pkts := l.n(50_000)
	l.out["fabric.hop_ns"] = starHops(16, disjoint, pkts, 1000, false)
	l.out["fabric.hop_small_ns"] = starHops(16, disjoint, pkts, 64, false)
	// Four-to-one incast under PFC: the receiver's port backs up, the
	// switch pauses the senders, nothing drops.
	// (At least 1000 packets a sender, so even the test's shrunken run
	// fills the 217 KB pause threshold.)
	incast := [][2]int{{0, 4}, {1, 4}, {2, 4}, {3, 4}}
	l.out["fabric.hop_pfc_ns"] = starHops(5, incast, max(2*pkts, 1000), 1000, true)
}

// ---- core, rocev2, tcpstack ----

// loopback is a transport.Endpoint with a wire of zero length: one driving
// event per link time asks the source for a packet and hands it straight
// to the sink, and control packets the sink emits reach the source before
// SendControl returns. With lossy set it drops one data packet in 100 and
// swaps one adjacent pair in 200, so the recovery paths run. Timers are
// real: the loopback owns an engine and the drive loop runs on it.
type loopback struct {
	eng   *sim.Engine
	pool  *packet.Pool
	src   transport.Source
	dst   transport.Sink
	lossy bool
	held  *packet.Packet // the packet a swap is holding back
	sent  int
	ticks int // driving events since the source last had data
}

// linkTime is one 1 KB packet's serialization at 40 Gbps.
const linkTime = 212 * sim.Nanosecond

func newLoopback(lossy bool) *loopback {
	return &loopback{eng: sim.NewEngine(), pool: packet.NewPool(), lossy: lossy}
}

func (lb *loopback) Now() sim.Time       { return lb.eng.Now() }
func (lb *loopback) Engine() *sim.Engine { return lb.eng }
func (lb *loopback) Clock() *sim.Clock   { return nil }
func (lb *loopback) Pool() *packet.Pool  { return lb.pool }
func (lb *loopback) Wake()               {}

func (lb *loopback) SendControl(pkt *packet.Packet) {
	lb.src.HandleControl(pkt, lb.eng.Now())
	lb.pool.Release(pkt)
}

func (lb *loopback) deliver(pkt *packet.Packet) {
	lb.dst.HandleData(pkt, lb.eng.Now())
	lb.pool.Release(pkt)
}

// HandleEvent is the driving event: the link is free.
func (lb *loopback) HandleEvent(uint8, uint64) {
	if lb.src.Done() {
		return
	}
	now := lb.eng.Now()
	if ready, _ := lb.src.HasData(now); ready {
		if pkt := lb.src.NextPacket(now); pkt != nil {
			lb.sent++
			lb.ticks = 0
			switch {
			case lb.lossy && lb.sent%100 == 0:
				lb.pool.Release(pkt)
			case lb.lossy && lb.sent%200 == 50:
				lb.held = pkt
			default:
				lb.deliver(pkt)
				if lb.held != nil {
					held := lb.held
					lb.held = nil
					lb.deliver(held)
				}
			}
		}
	} else if lb.held != nil {
		held := lb.held
		lb.held = nil
		lb.deliver(held)
	}
	// While the source idles (waiting on a timeout) poll once per
	// microsecond instead of once per link time.
	gap := linkTime
	if lb.ticks++; lb.ticks > 8 {
		gap = sim.Microsecond
	}
	lb.eng.AfterEvent(gap, lb, 0, 0)
}

// run drives the attached pair to completion and returns packets sent.
func (lb *loopback) run() int {
	lb.sent, lb.ticks, lb.held = 0, 0, nil
	lb.eng.AfterEvent(0, lb, 0, 0)
	lb.eng.Run()
	if !lb.src.Done() {
		panic("benchmark: loopback flow did not complete")
	}
	return lb.sent
}

// pairMaker attaches a fresh sender/receiver pair for flow fl to lb.
type pairMaker func(lb *loopback, fl *transport.Flow)

func irnPair(lb *loopback, fl *transport.Flow) {
	p := core.DefaultParams(1000, 110)
	lb.src = core.NewSender(lb, fl, p, nil)
	lb.dst = core.NewReceiver(lb, fl, p, nil)
}

func rocePair(lb *loopback, fl *transport.Flow) {
	p := rocev2.DefaultParams(1000)
	lb.src = rocev2.NewSender(lb, fl, p, nil)
	lb.dst = rocev2.NewReceiver(lb, fl, p, nil)
}

func tcpPair(lb *loopback, fl *transport.Flow) {
	p := tcpstack.DefaultParams(1000)
	lb.src = tcpstack.NewSender(lb, fl, p)
	lb.dst = tcpstack.NewReceiver(lb, fl, p, nil)
}

// longFlow times one long flow over the loopback: ns per data packet sent,
// sender plus receiver plus the driving event.
func longFlow(mk pairMaker, pkts int, lossy bool) float64 {
	lb := newLoopback(lossy)
	ns, _ := perOp(func() int {
		lb.eng.Reset()
		mk(lb, &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: pkts * 1000, Pkts: pkts})
		return lb.run()
	})
	return ns
}

// flowSetup times one-packet flows end to end: construct both halves, send,
// deliver, acknowledge. The per-flow cost a workload of tiny flows pays.
func flowSetup(mk pairMaker, flows int) (ns, allocs float64) {
	lb := newLoopback(false)
	return perOp(func() int {
		lb.eng.Reset()
		for i := 0; i < flows; i++ {
			mk(lb, &transport.Flow{ID: packet.FlowID(i + 1), Src: 0, Dst: 1, Size: 64, Pkts: 1})
			lb.run()
		}
		return flows
	})
}

func (l *ledger) transports() {
	pkts := l.n(400_000)
	l.out["core.pkt_ns"] = longFlow(irnPair, pkts, false)
	l.out["core.pkt_loss_ns"] = longFlow(irnPair, pkts, true)
	l.out["rocev2.pkt_ns"] = longFlow(rocePair, pkts, false)
	l.out["rocev2.pkt_loss_ns"] = longFlow(rocePair, pkts, true)
	l.out["tcpstack.pkt_ns"] = longFlow(tcpPair, pkts, false)
	flows := l.n(100_000)
	l.out["core.flow_setup_ns"], l.out["core.flow_setup_allocs"] = flowSetup(irnPair, flows)
	l.out["rocev2.flow_setup_ns"], l.out["rocev2.flow_setup_allocs"] = flowSetup(rocePair, flows)
}

// ---- cc ----

func (l *ledger) ccLayer() {
	eng := sim.NewEngine()
	n := l.n(5_000_000)
	d := cc.NewDCQCN(eng, nil, cc.DefaultDCQCNConfig(40))
	l.out["cc.dcqcn_send_ns"], _ = perOp(func() int {
		var sum sim.Duration
		for i := 0; i < n; i++ {
			sum += d.SendDelay(1058)
		}
		sink = int(sum)
		return n
	})
	l.out["cc.dcqcn_cnp_ns"], _ = perOp(func() int {
		for i := 0; i < n; i++ {
			d.OnCNP(sim.Time(i) * sim.Time(50*sim.Microsecond))
		}
		return n
	})
	d.Stop()

	tm := cc.NewTimely(cc.DefaultTimelyConfig(40, 26*sim.Microsecond))
	l.out["cc.timely_ack_ns"], _ = perOp(func() int {
		for i := 0; i < n; i++ {
			// RTTs sweep 20–148 µs so the gradient changes sign.
			tm.OnAck(0, sim.Duration(20+i&127)*sim.Microsecond, 1, false)
		}
		return n
	})
}

// ---- metrics ----

func flowRecord(i int) metrics.FlowRecord {
	fct := sim.Duration(10+i%5000) * sim.Microsecond
	return metrics.FlowRecord{Size: 1000 + i%100_000, Pkts: 1 + i%100, FCT: fct, Ideal: fct / 2, SinglePacket: i%2 == 0}
}

func (l *ledger) metricsLayer() {
	n := l.n(5_000_000)
	var c metrics.Collector
	l.out["metrics.add_ns"], _ = perOp(func() int {
		for i := 0; i < n; i++ {
			c.Add(flowRecord(i))
		}
		return n
	})
	var part metrics.Collector
	for i := 0; i < 10_000; i++ {
		part.Add(flowRecord(i))
	}
	merges := l.n(20_000)
	l.out["metrics.merge_ns"], _ = perOp(func() int {
		var agg metrics.Collector
		for i := 0; i < merges; i++ {
			agg.Merge(&part)
		}
		return merges
	})
	quantiles := l.n(200_000)
	l.out["metrics.quantile_ns"], _ = perOp(func() int {
		var sum sim.Duration
		for i := 0; i < quantiles; i++ {
			sum += c.PercentileFCT(99)
		}
		sink = int(sum)
		return quantiles
	})
}

// ---- verbs ----

// vwire is a verbs.Wire between two QPs on one engine: packets queue and
// arrive one link delay later through a typed event, so a delivery
// allocates nothing in the wire itself.
type vwire struct {
	eng  *sim.Engine
	peer *verbs.QP
	q    []*verbs.VPacket
	head int
	pkts int
}

func (w *vwire) Send(p *verbs.VPacket) {
	w.q = append(w.q, p)
	w.pkts++
	w.eng.AfterEvent(2*sim.Microsecond, w, 0, 0)
}

func (w *vwire) HandleEvent(uint8, uint64) {
	p := w.q[w.head]
	w.q[w.head] = nil
	if w.head++; w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	}
	w.peer.Receive(p, w.eng.Now())
}

func (l *ledger) verbsLayer() {
	eng := sim.NewEngine()
	ab, ba := &vwire{eng: eng}, &vwire{eng: eng}
	memB := verbs.NewMemory()
	cqA, cqB := &verbs.CQ{}, &verbs.CQ{}
	a := verbs.NewQP("a", eng, verbs.DefaultConfig(), ab, verbs.NewMemory(), cqA)
	b := verbs.NewQP("b", eng, verbs.DefaultConfig(), ba, memB, cqB)
	ab.peer, ba.peer = b, a
	done := 0
	cqA.OnComplete(func(e verbs.CQE) {
		if e.Status != verbs.StatusOK {
			panic("benchmark: verbs driver: completion failed")
		}
		done++
	})
	cqB.OnComplete(func(verbs.CQE) {})

	const region = 1
	memB.Register(region, make([]byte, 64<<10))
	data := make([]byte, 64<<10)
	writes := l.n(2_000)
	l.out["verbs.write_pkt_ns"], _ = perOp(func() int {
		done, ab.pkts = 0, 0
		for i := 0; i < writes; i++ {
			if err := a.PostSend(verbs.Request{ID: uint64(i), Op: verbs.OpWrite, Data: data, RKey: region}); err != nil {
				panic(err)
			}
			eng.Run()
		}
		if done != writes {
			panic(fmt.Sprintf("benchmark: verbs driver: %d of %d writes completed", done, writes))
		}
		return ab.pkts
	})

	msg := make([]byte, 64)
	buf := make([]byte, 64)
	sends := l.n(100_000)
	l.out["verbs.send_msg_ns"], l.out["verbs.send_msg_allocs"] = perOp(func() int {
		done = 0
		for i := 0; i < sends; i++ {
			b.PostRecv(uint64(i), buf)
			if err := a.PostSend(verbs.Request{ID: uint64(i), Op: verbs.OpSend, Data: msg}); err != nil {
				panic(err)
			}
			eng.Run()
		}
		if done != sends {
			panic(fmt.Sprintf("benchmark: verbs driver: %d of %d sends completed", done, sends))
		}
		return sends
	})
}

// ---- kv ----

func (l *ledger) kvLayer() {
	// A fault-free service run through the public entry point, inclusive:
	// fabric, verbs and kv per request, on a worker warmed like the
	// end-to-end runs.
	requests := l.n(40_000)
	scenario := func(n int) exp.Scenario {
		return exp.Scenario{Arity: 6, KV: kv.Options{Requests: n, Mode: kv.ModeWriteImm}, Seed: 1}
	}
	w := exp.NewWorker()
	w.Run(scenario(requests / setupDivisor))
	l.out["kv.request_ns"], l.out["kv.request_allocs"] = perOp(func() int {
		r := w.Run(scenario(requests))
		if r.KV == nil || int(r.KV.Committed+r.KV.GetsOK) != requests {
			panic("benchmark: kv driver: fault-free run left requests unanswered")
		}
		return requests
	})

	n := l.n(2_000_000)
	value := make([]byte, 2000)
	var frame []byte
	l.out["kv.rpc_codec_ns"], _ = perOp(func() int {
		for i := 0; i < n; i++ {
			frame = kv.MarshalRequest(frame[:0], kv.Request{Client: 3, Seq: uint64(i), Op: kv.OpPut, Key: uint64(i & 63), Value: value})
			req, _, err := kv.UnmarshalRequest(frame)
			if err != nil {
				panic(err)
			}
			frame = kv.MarshalResponse(frame[:0], kv.Response{Client: req.Client, Seq: req.Seq, Status: kv.RespOK})
			if _, _, err := kv.UnmarshalResponse(frame); err != nil {
				panic(err)
			}
		}
		return n
	})
}

// ---- hwmodel (paper Table 2) ----

func (l *ledger) hwmodelLayer() {
	n := l.n(10_000_000)
	l.out["hwmodel.receive_data_ns"], _ = perOp(func() int {
		ctx := &hwmodel.QPContext{}
		for i := 0; i < n; i++ {
			psn := ctx.Expected
			if i%7 == 3 {
				psn += 2
			}
			hwmodel.ReceiveData(ctx, psn, i%4 == 0)
		}
		return n
	})
	l.out["hwmodel.tx_free_ns"], _ = perOp(func() int {
		ctx := &hwmodel.QPContext{}
		for i := 0; i < n; i++ {
			if out := hwmodel.TxFree(ctx, ^uint32(0), hwmodel.Bits); out.HasPacket && i%2 == 0 {
				hwmodel.ReceiveAck(ctx, out.PSN+1, false, 0)
			}
		}
		return n
	})
	l.out["hwmodel.receive_ack_ns"], _ = perOp(func() int {
		ctx := &hwmodel.QPContext{NextSeq: 1 << 30}
		cum := uint32(0)
		for i := 0; i < n; i++ {
			cum++
			hwmodel.ReceiveAck(ctx, cum, i%16 == 7, cum+3)
		}
		return n
	})
	l.out["hwmodel.timeout_ns"], _ = perOp(func() int {
		ctx := &hwmodel.QPContext{RTOLowArm: true, RTOLowN: 3, InFlight: 10, NextSeq: 10}
		fired := 0
		for i := 0; i < n; i++ {
			ctx.RTOLowArm = true
			if hwmodel.Timeout(ctx).Fire {
				fired++
			}
		}
		sink = fired
		return n
	})
}
