package fabric

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
)

// checkCensus asserts packet conservation and pool accounting after a run.
func checkCensus(t *testing.T, net *Network) {
	t.Helper()
	cv := net.Census()
	c := &cv
	inFlight := uint64(net.InFlightPackets())
	if c.Injected != c.Exits()+inFlight {
		t.Errorf("census: injected %d != exits %d + in-flight %d (%+v)",
			c.Injected, c.Exits(), inFlight, *c)
	}
	live := uint64(net.PoolLive())
	want := inFlight + uint64(net.CtrlBacklog())
	if live != want {
		t.Errorf("pool: %d live packets, want %d (in-flight + ctrl backlog)", live, want)
	}
}

// faultNet builds a star fabric with the given fault spec compiled against
// its links.
func faultNet(t *testing.T, hosts int, spec fault.Spec, seed uint64) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := testConfig()
	top := topo.NewStar(hosts)
	m, err := fault.New(spec, len(top.Links()), seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = m
	return eng, New(eng, top, cfg)
}

// TestFaultModelRequiresSingleShard: boundary channels carry no fault
// logic, so a fault model over two engines panics both at construction
// and when a reset would attach one to a partitioned fabric.
func TestFaultModelRequiresSingleShard(t *testing.T) {
	tree := topo.NewFatTree(4)
	assign, used := topo.PartitionNodes(tree, 2)
	if used != 2 {
		t.Fatalf("partitioner used %d shards, want 2", used)
	}
	m := fault.MustNew(fault.Spec{LossRate: 0.01}, len(tree.Links()), 1)
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), "single-shard") {
				t.Errorf("%s: recovered %v, want the single-shard panic", what, r)
			}
		}()
		f()
	}

	cfg := testConfig()
	cfg.Faults = m
	mustPanic("NewPartitioned", func() { NewPartitioned(engs, assign, tree, cfg) })

	net := NewPartitioned(engs, assign, tree, testConfig())
	net.Reset(2, nil) // fault-free resets stay legal
	mustPanic("Reset", func() { net.Reset(3, m) })
}

// newPooledBlaster builds a pooledBlaster (see perf_test.go) — fault
// death sites release into the network pool, so fault tests must allocate
// from it too.
func newPooledBlaster(net *Network, id packet.FlowID, src, dst packet.NodeID, pkts, mtu int) *pooledBlaster {
	return &pooledBlaster{
		pool: net.Pool(),
		flow: &transport.Flow{ID: id, Src: src, Dst: dst, Size: pkts * mtu, Pkts: pkts},
		mtu:  mtu,
	}
}

func TestTotalLossDropsEverything(t *testing.T) {
	eng, net := faultNet(t, 2, fault.Spec{LossRate: 1}, 1)
	rec := &recorder{}
	net.NIC(1).AttachSink(1, rec)
	net.NIC(0).AttachSource(newPooledBlaster(net, 1, 0, 1, 100, net.Cfg.MTU))
	eng.Run()

	if len(rec.times) != 0 {
		t.Fatalf("delivered %d packets across a fully lossy link", len(rec.times))
	}
	if net.Stats().FaultDrops != 100 {
		t.Errorf("fault drops = %d, want 100", net.Stats().FaultDrops)
	}
	checkCensus(t, net)
}

func TestCorruptionCountedSeparately(t *testing.T) {
	eng, net := faultNet(t, 2, fault.Spec{CorruptRate: 0.3}, 7)
	const pkts = 2000
	rec := &recorder{}
	net.NIC(1).AttachSink(1, rec)
	net.NIC(0).AttachSource(newPooledBlaster(net, 1, 0, 1, pkts, net.Cfg.MTU))
	eng.Run()

	if net.Stats().Corrupted == 0 {
		t.Fatal("no packets corrupted at 30% rate")
	}
	if net.Stats().FaultDrops != 0 {
		t.Errorf("corruption leaked into FaultDrops (%d)", net.Stats().FaultDrops)
	}
	if got := len(rec.times) + int(net.Stats().Corrupted); got != pkts {
		t.Errorf("delivered %d + corrupted %d != %d", len(rec.times), net.Stats().Corrupted, pkts)
	}
	// ~30% per link direction over 2 hops ⇒ ~51% end-to-end; allow slack.
	if frac := float64(net.Stats().Corrupted) / pkts; frac < 0.35 || frac > 0.65 {
		t.Errorf("corrupted fraction %.2f outside [0.35, 0.65]", frac)
	}
	checkCensus(t, net)
}

func TestLinkFlapKillsInFlightAndRecovers(t *testing.T) {
	// The host 0 uplink goes down mid-stream and comes back. Packets in
	// flight (or arriving on the dead link) die; transmission halts during
	// the outage; the stream completes after the link returns.
	cfg := testConfig()
	wire := cfg.MTU + packet.DataHeader
	ser := cfg.Rate.Serialize(wire)
	down := sim.Time(10 * int64(ser))
	up := down.Add(50 * sim.Microsecond)
	eng, net := faultNet(t, 2, fault.Spec{
		Flaps: []fault.Flap{{Link: 0, DownAt: down, UpAt: up}},
	}, 1)

	const pkts = 100
	rec := &recorder{}
	net.NIC(1).AttachSink(1, rec)
	net.NIC(0).AttachSource(newPooledBlaster(net, 1, 0, 1, pkts, net.Cfg.MTU))
	eng.Run()

	if net.Stats().FaultDrops == 0 {
		t.Error("flap killed no in-flight packets")
	}
	if got := len(rec.times) + int(net.Stats().FaultDrops); got != pkts {
		t.Errorf("delivered %d + killed %d != %d", len(rec.times), net.Stats().FaultDrops, pkts)
	}
	// No arrival during the outage window (plus the propagation tail).
	for _, at := range rec.times {
		if at > down.Add(cfg.Prop) && at < up {
			t.Errorf("packet arrived at %v inside the outage [%v, %v]", at, down, up)
		}
	}
	// The stream must resume after the link comes back.
	last := rec.times[len(rec.times)-1]
	if last <= up {
		t.Errorf("stream never resumed after link-up (last arrival %v <= %v)", last, up)
	}
	checkCensus(t, net)
}

func TestDegradedLinkSlowsDelivery(t *testing.T) {
	// Run the whole stream with host 0's uplink at quarter rate: the last
	// arrival lands ~4× later than at full rate.
	run := func(factor float64) sim.Time {
		spec := fault.Spec{}
		if factor != 0 {
			spec.Degrades = []fault.Degrade{{Link: 0, Factor: factor}}
		}
		eng, net := faultNet(t, 2, spec, 1)
		rec := &recorder{}
		net.NIC(1).AttachSink(1, rec)
		net.NIC(0).AttachSource(newPooledBlaster(net, 1, 0, 1, 500, net.Cfg.MTU))
		eng.Run()
		if len(rec.times) != 500 {
			t.Fatalf("factor %v: delivered %d/500", factor, len(rec.times))
		}
		checkCensus(t, net)
		return rec.times[len(rec.times)-1]
	}
	full := run(0)
	slow := run(0.25)
	ratio := float64(slow) / float64(full)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("quarter-rate stream took %.2fx the full-rate time, want ~4x", ratio)
	}
}

func TestECMPAvoidsDownedLink(t *testing.T) {
	// k=4 fat-tree: host 0's edge switch has two agg uplinks. With one
	// down from the start, inter-pod flows must still fully deliver over
	// the surviving path.
	eng := sim.NewEngine()
	cfg := testConfig()
	top := topo.NewFatTree(4)
	// Find an uplink of host 0's edge switch (pod 0, edge 0).
	hosts := top.Hosts()
	downLink := -1
	for i, l := range top.Links() {
		if int(l.A) == hosts && int(l.B) > hosts { // edge(0,0) → an agg
			downLink = i
			break
		}
	}
	if downLink < 0 {
		t.Fatal("no edge uplink found")
	}
	m, err := fault.New(fault.Spec{Flaps: []fault.Flap{{Link: downLink, DownAt: 0}}}, len(top.Links()), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = m
	net := New(eng, top, cfg)

	const flows = 16
	const pkts = 20
	delivered := 0
	for f := packet.FlowID(1); f <= flows; f++ {
		src, dst := packet.NodeID(0), packet.NodeID(15) // pod 0 → pod 3
		net.NIC(dst).AttachSink(f, sinkFunc(func(*packet.Packet, sim.Time) { delivered++ }))
		net.NIC(src).AttachSource(newPooledBlaster(net, f, src, dst, pkts, cfg.MTU))
	}
	eng.Run()

	if delivered != flows*pkts {
		t.Errorf("delivered %d/%d packets around the downed uplink (faultdrops=%d, drops=%d)",
			delivered, flows*pkts, net.Stats().FaultDrops, net.Stats().Drops)
	}
	checkCensus(t, net)
}

// faultFired is one executed fault transition: its position in the
// engine's order and its payload.
type faultFired struct {
	at   sim.Time
	rank uint64
	arg  uint64
}

type faultLog struct {
	eng *sim.Engine
	log []faultFired
}

func (l *faultLog) HandleEvent(_ uint8, arg uint64) {
	l.log = append(l.log, faultFired{l.eng.Now(), l.eng.Rank(), arg})
}

// scheduleFaultsUpFront is the fault scheduling the fabric used before
// transitions were chained, kept as the reference: every transition of
// every direction drawn from the environment clock and queued before the
// run, in (direction, index) order.
func scheduleFaultsUpFront(m *fault.Model, eng *sim.Engine, envClk *sim.Clock, h sim.Handler) {
	for d, fl := range m.Dirs() {
		if fl == nil {
			continue
		}
		for ci, ch := range fl.Sched {
			eng.ScheduleEventFrom(envClk, ch.At, h, 0, uint64(d)<<32|uint64(ci))
		}
	}
}

// TestFaultChainMatchesUpFrontReference holds the chained fault source to
// the up-front reference on a schedule with equal-time transitions on one
// direction (touching flaps and bursts, a degrade ending as a flap begins)
// and across directions (both directions of a link, several links at
// once): every transition keeps its (time, rank, arg), the environment
// clock ends on the same sequence number, the engine never holds more than
// one transition per faulted direction, each instant executes exactly its
// transitions, and the ports end every instant in the state the static
// schedule gives.
func TestFaultChainMatchesUpFrontReference(t *testing.T) {
	us := func(n int) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	spec := fault.Spec{
		LossRate: 0.01, // every direction gets a fault link; most have no schedule
		Flaps: []fault.Flap{
			{Link: 0, DownAt: us(10), UpAt: us(20)},
			{Link: 0, DownAt: us(20), UpAt: us(30)}, // touches the first
			{Link: 1, DownAt: us(10), UpAt: us(30)}, // same instants, other link
			{Link: 2, DownAt: us(30)},               // never comes up
		},
		Degrades: []fault.Degrade{
			{Link: 0, From: us(5), To: us(20), Factor: 0.5}, // ends as a flap turns over
			{Link: 3, From: us(10), To: us(10) + 1, Factor: 0.25},
		},
		Bursts: []fault.LossBurst{
			{Link: 1, From: us(10), To: us(15), Rate: 0.2},
			{Link: 1, From: us(15), To: us(30), Rate: 0.4}, // touching bursts
			{Link: 3, From: us(30), Rate: 1},
		},
	}
	eng, net := faultNet(t, 5, spec, 3)
	m := net.Cfg.Faults

	refEng, refClk := sim.NewEngine(), sim.NewClock(0)
	ref := &faultLog{eng: refEng}
	scheduleFaultsUpFront(m, refEng, &refClk, ref)
	total := refEng.Pending()
	refEng.Run()

	// The chained source's keys, in firing order.
	var got []faultFired
	faulted := 0
	for d, fl := range m.Dirs() {
		if fl == nil || len(fl.Sched) == 0 {
			continue
		}
		faulted++
		for ci, ch := range fl.Sched {
			got = append(got, faultFired{ch.At, net.faultRank[d] + uint64(ci), uint64(d)<<32 | uint64(ci)})
		}
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i].at != got[j].at {
			return got[i].at < got[j].at
		}
		return got[i].rank < got[j].rank
	})
	if total < 20 || !reflect.DeepEqual(got, ref.log) {
		t.Fatalf("chained transitions differ from the reference's %d:\n got %+v\nwant %+v", total, got, ref.log)
	}
	if net.envClk != refClk {
		t.Fatalf("environment clock ended at %+v, reference %+v", net.envClk, refClk)
	}

	// And the run itself, instant by instant.
	if eng.Pending() != faulted {
		t.Fatalf("%d events parked for %d faulted directions", eng.Pending(), faulted)
	}
	next := 0
	for {
		at, ok := eng.NextEventTime()
		if !ok {
			break
		}
		before := eng.Executed()
		eng.RunUntil(at)
		want := 0
		for next < len(ref.log) && ref.log[next].at == at {
			next, want = next+1, want+1
		}
		if n := int(eng.Executed() - before); n != want {
			t.Fatalf("t=%d: %d transitions executed, reference has %d", at, n, want)
		}
		if eng.Pending() > faulted {
			t.Fatalf("t=%d: %d events queued for %d faulted directions", at, eng.Pending(), faulted)
		}
		for d, fl := range m.Dirs() {
			down, loss := fl.StateAt(at)
			if p := net.ports[d]; p.down != down || p.curLoss != loss {
				t.Fatalf("t=%d direction %d: down=%v loss=%v, static schedule says %v %v", at, d, p.down, p.curLoss, down, loss)
			}
		}
	}
	if next != len(ref.log) {
		t.Fatalf("run executed %d of %d transitions", next, len(ref.log))
	}

	// A reset re-reserves the same blocks.
	ranks := append([]uint64(nil), net.faultRank...)
	eng.Reset()
	net.Reset(3, m)
	if !reflect.DeepEqual(ranks, net.faultRank) || net.envClk != refClk || eng.Pending() != faulted {
		t.Fatal("Network.Reset did not re-park the schedule as construction did")
	}
}
