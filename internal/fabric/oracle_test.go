package fabric

import (
	"fmt"
	"slices"
	"testing"

	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// arrival is one packet reaching the far end of the link under test, keyed
// by the executing event's position in the engine's total order.
type arrival struct {
	at   sim.Time
	rank uint64
	flow packet.FlowID
	psn  packet.PSN
}

// eagerPort is the timing model outPort must be indistinguishable from: a
// busy flag and two events per packet, serialization end always an event
// and the arrival scheduled from it. It exists only here, as the oracle.
// wanted counts the serialization ends somebody was waiting for — the
// owner still backlogged after the dequeue, or a kick finding the port
// busy — which is exactly the set outPort may spend an event on.
type eagerPort struct {
	eng     *sim.Engine
	clk     *sim.Clock
	rate    Rate
	prop    sim.Duration
	next    func() *packet.Packet // the owner's nextPacket
	backlog func() bool           // the owner's backlog right after a dequeue

	busy, paused, down bool
	waited             bool // this serialization end is already counted in wanted
	serRank            uint64
	inflight           []*packet.Packet

	arrivals                   []arrival
	killed, departures, wanted int
}

func (e *eagerPort) kick() {
	if e.busy || e.paused || e.down {
		if e.busy && !e.paused && !e.down && !e.waited {
			e.waited = true
			e.wanted++
		}
		return
	}
	pkt := e.next()
	if pkt == nil {
		return
	}
	e.departures++
	e.busy, e.waited = true, e.backlog()
	if e.waited {
		e.wanted++
	}
	e.serRank = e.clk.Next()
	e.inflight = append(e.inflight, pkt)
	e.eng.AfterEventFrom(e.clk, e.rate.Serialize(int(pkt.Wire)), e, portTxDone, 0)
}

func (e *eagerPort) HandleEvent(kind uint8, _ uint64) {
	switch kind {
	case portTxDone:
		e.busy = false
		e.eng.ScheduleRanked(e.eng.Now().Add(e.prop), e.serRank, e, portDeliver, 0)
		e.kick()
	case portDeliver:
		pkt := e.inflight[0]
		e.inflight = e.inflight[1:]
		if e.down {
			e.killed++
			return
		}
		e.arrivals = append(e.arrivals, arrival{e.eng.Now(), e.eng.Rank(), pkt.Flow, pkt.PSN})
	}
}

// peerRec stands in for the node at the far end of the port under test.
type peerRec struct {
	eng      *sim.Engine
	arrivals []arrival
}

func (r *peerRec) receive(pkt *packet.Packet, _ int) {
	r.arrivals = append(r.arrivals, arrival{r.eng.Now(), r.eng.Rank(), pkt.Flow, pkt.PSN})
}
func (r *peerRec) pfcFrame(int, bool) {}

type fnEvent func()

func (f fnEvent) HandleEvent(uint8, uint64) { f() }

// Oracle actions. Every instant in the test is a multiple of one 64-byte
// serialization and every frame a multiple of 64 bytes, so actions keep
// landing on the same picosecond as a serialization end; late picks the
// side of the port's own rank they land on.
const (
	actArrive = iota // a packet (switch) or a control packet / source / bare Wake (NIC)
	actPause
	actResume
	actDown
	actUp
	actRate
)

type action struct {
	kind, a, b int
	late       bool
}

// portSide is one of the two simulations driven in lockstep: the real
// outPort, or — ref set — the same real owner (switch output or NIC)
// feeding the eager reference, its own port held silent by the pause flag.
type portSide struct {
	net       *Network
	eng, cons *sim.Engine // the port's engine; the peer's (the same unless boundary)
	port      *outPort
	rec       *peerRec
	ref       *eagerPort
	psn       packet.PSN
	flows     packet.FlowID
}

// Star(3): hosts 0–2 on switch 3. The port under test is host 0's egress
// (NIC owner) or the switch's output toward host 1.
func newPortSide(nicOwner, boundary, reference bool) *portSide {
	cfg := testConfig()
	cfg.BufferBytes = 1 << 30 // arrivals queue, never drop
	tp := topo.NewStar(3)
	owner := packet.NodeID(3)
	if nicOwner {
		owner = 0
	}
	engs := []*sim.Engine{sim.NewEngine()}
	assign := make([]int, 4)
	if boundary {
		engs = append(engs, sim.NewEngine())
		for n := range assign {
			if packet.NodeID(n) != owner {
				assign[n] = 1
			}
		}
	}
	s := &portSide{net: NewPartitioned(engs, assign, tp, cfg), eng: engs[0], cons: engs[len(engs)-1]}
	if nicOwner {
		s.port = &s.net.NIC(0).egress
	} else {
		s.port = &s.net.switches[0].out[1].port
	}
	s.rec = &peerRec{eng: s.cons}
	if s.port.xchan != nil {
		s.port.xchan.dst = s.rec
	} else {
		s.port.peer = s.rec
	}
	if reference {
		p := s.port
		p.paused = true
		s.ref = &eagerPort{eng: s.eng, clk: p.clk, rate: p.rate, prop: p.prop}
		if nicOwner {
			s.ref.next = p.nic.nextPacket
			s.ref.backlog = func() bool { return !p.nic.ctrl.Empty() || len(p.nic.sources) > 0 }
		} else {
			s.ref.next = p.sw.nextPacket
			s.ref.backlog = func() bool { return p.sw.queued != 0 }
		}
	}
	return s
}

func (s *portSide) do(a action) {
	switch a.kind {
	case actArrive:
		payload := 64*a.b - packet.DataHeader
		switch {
		case s.port.nic == nil:
			s.psn++
			s.net.switches[0].receive(packet.NewData(1, packet.NodeID(a.a), 1, s.psn, payload, false), a.a)
		case a.a < 4:
			s.psn++
			s.port.nic.SendControl(packet.NewAck(1, 0, 1, s.psn))
		case a.a == 4:
			s.port.nic.Wake()
		default:
			s.flows++
			s.port.nic.AttachSource(newBlaster(1+s.flows, 0, 1, a.a-4, payload))
		}
		if s.ref != nil {
			s.ref.kick()
		}
	case actPause:
		if s.ref != nil {
			s.ref.paused = true
		} else {
			s.port.pause()
		}
	case actResume:
		if s.ref == nil {
			s.port.resume()
		} else if s.ref.paused {
			s.ref.paused = false
			s.ref.kick()
		}
	case actDown, actUp:
		if s.ref != nil {
			if s.ref.down = a.kind == actDown; !s.ref.down {
				s.ref.kick()
			}
		} else if a.kind == actDown {
			s.port.applyChange(fault.Change{Kind: fault.ChangeDown})
		} else {
			s.port.applyChange(fault.Change{Kind: fault.ChangeUp})
		}
	case actRate:
		f := []float64{1, 1, 1, 0.5}[a.a]
		if s.ref == nil {
			s.port.applyChange(fault.Change{Kind: fault.ChangeRate, Factor: f})
		} else if s.ref.rate = s.port.rate; f != 1 {
			s.ref.rate = Rate(float64(s.port.rate)/f + 0.5)
		}
	}
}

// runTo executes everything due at or before t, the peer's engine after
// the port's: a boundary arrival is due at least one propagation delay
// after its push, far more than one step.
func (s *portSide) runTo(t sim.Time) {
	s.eng.RunUntil(t)
	if s.cons != s.eng {
		s.net.DrainAll()
		s.cons.RunUntil(t)
	}
}

// ownerState is what the owner has left to send: any dequeue at a
// different instant on the two sides shows up here at the next step.
func (s *portSide) ownerState() [3]int {
	if n := s.port.nic; n != nil {
		return [3]int{n.ctrl.Len(), len(n.sources), n.rr}
	}
	return [3]int{s.port.sw.queued, s.port.sw.rr, s.net.switches[0].in[0].bytes}
}

// TestPortTimingMatchesEagerOracle drives the real port and the eager
// two-event reference side by side under one seeded action stream and
// requires them to be indistinguishable from outside: same arrivals at
// the peer at the same (time, rank), same dequeue instants, same clock
// sequence — while the real port spends an event on a serialization end
// only when somebody wanted the transmitter at that instant.
func TestPortTimingMatchesEagerOracle(t *testing.T) {
	for _, nicOwner := range []bool{false, true} {
		for _, boundary := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("nic=%v/boundary=%v/seed=%d", nicOwner, boundary, seed)
				t.Run(name, func(t *testing.T) { portOracle(t, nicOwner, boundary, seed) })
			}
		}
	}
}

func portOracle(t *testing.T, nicOwner, boundary bool, seed uint64) {
	sides := []*portSide{newPortSide(nicOwner, boundary, false), newPortSide(nicOwner, false, true)}
	live, ref := sides[0], sides[1].ref
	step := live.port.rate.Serialize(64)
	rng := sim.NewRNG(seed)
	var actions uint64
	schedule := func(at sim.Time, a action) {
		actions++
		rank := actions // below every node clock
		if a.late {
			rank |= 1 << 63 // above every node clock
		}
		for _, s := range sides {
			s.eng.ScheduleRanked(at, rank, fnEvent(func() { s.do(a) }), 0, 0)
		}
	}
	const steps = 8000
	for i := 1; i <= steps; i++ {
		at := sim.Time(0).Add(sim.Duration(i) * step)
		// Offered load alternates between mostly idle and overloaded.
		arrive := 2
		if (i/500)%2 == 1 {
			arrive = 14
		}
		for n := rng.Intn(3); n > 0; n-- {
			a := action{late: rng.Intn(2) == 0}
			switch r := rng.Intn(100); {
			case r < arrive:
				a.kind, a.b = actArrive, 1+rng.Intn(8)
				if a.a = 2 * rng.Intn(2); nicOwner { // switch: input 0 or 2
					a.a = rng.Intn(8) // NIC: control, bare Wake, or a 1–3 packet source
				}
			case r < 90:
				continue
			case r < 95: // held for a fifth of the time
				if a.kind = actResume; r == 90 {
					a.kind = actPause
				}
			case r < 98:
				// A boundary link carries no fault logic: a fault model
				// requires a single-shard fabric.
				if a.kind = actUp; r == 95 && !boundary {
					a.kind = actDown
				}
			default:
				a.kind, a.a = actRate, rng.Intn(4)
			}
			schedule(at, a)
		}
		for _, s := range sides {
			s.runTo(at)
		}
		if got, want := live.ownerState(), sides[1].ownerState(); got != want {
			t.Fatalf("step %d: owner state %v, eager reference %v", i, got, want)
		}
		pending := live.eng.Pending() - live.port.inflight.Len()
		if pending < 0 || pending > 1 || (pending == 1) != live.port.txPending {
			t.Fatalf("step %d: %d tx-done events pending, txPending=%v", i, pending, live.port.txPending)
		}
	}
	// Let everything held back leave, then drain.
	end := sim.Time(0).Add(sim.Duration(steps+1) * step)
	schedule(end, action{kind: actResume})
	schedule(end, action{kind: actUp})
	for _, s := range sides {
		for s.eng.Pending() > 0 || s.cons.Pending() > 0 {
			s.eng.Run()
			s.net.DrainAll()
			s.cons.Run()
		}
	}

	if !slices.Equal(live.rec.arrivals, ref.arrivals) {
		for i := range min(len(live.rec.arrivals), len(ref.arrivals)) {
			if live.rec.arrivals[i] != ref.arrivals[i] {
				t.Fatalf("arrival %d: %+v, eager reference %+v", i, live.rec.arrivals[i], ref.arrivals[i])
			}
		}
		t.Fatalf("%d arrivals, eager reference %d", len(live.rec.arrivals), len(ref.arrivals))
	}
	killed := int(live.net.Stats().FaultDrops)
	if killed != ref.killed || len(ref.arrivals)+ref.killed != ref.departures {
		t.Fatalf("%d packets died on the downed link, eager reference %d of %d departures", killed, ref.killed, ref.departures)
	}
	if *live.port.clk != *ref.clk {
		t.Fatalf("clock ended at %+v, eager reference %+v", *live.port.clk, *ref.clk)
	}
	events := live.eng.Executed() - actions
	if boundary {
		events += live.cons.Executed()
	}
	if want := ref.departures + ref.wanted; int(events) != want {
		t.Errorf("%d port events for %d departures, want %d (one each, plus the %d serialization ends somebody waited for)",
			events, ref.departures, want, ref.wanted)
	}
	if eager := sides[1].eng.Executed() - actions; int(eager) != 2*ref.departures {
		t.Fatalf("eager reference ran %d events for %d departures, want two each", eager, ref.departures)
	}
	if ref.departures < steps/20 || ref.wanted < ref.departures/10 || ref.departures-ref.wanted < 20 || (!boundary && ref.killed == 0) {
		t.Fatalf("stream did not exercise the port: %d departures, %d waited for, %d killed", ref.departures, ref.wanted, ref.killed)
	}
}

// TestOneEventPerIdleHop: a lone packet never finds a transmitter busy or
// leaves a backlog behind, so it costs exactly one engine event per link.
func TestOneEventPerIdleHop(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.NewDumbbell(1)
	cfg := testConfig()
	net := New(eng, tp, cfg)
	rec := &recorder{}
	net.NIC(1).AttachSink(1, rec)
	net.NIC(0).AttachSource(newBlaster(1, 0, 1, 1, cfg.MTU))
	eng.Run()
	if len(rec.times) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(rec.times))
	}
	if got, want := eng.Executed(), uint64(tp.PathHops(0, 1)); got != want {
		t.Errorf("%d engine events for one packet over %d links, want one per link", got, want)
	}
}
