package fabric

import (
	"math/rand"
	"testing"
	"unsafe"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
)

// TestFlowTableMatchesMaps drives a NIC's flow table and the two Go maps
// it replaced with the same random attach / reap / retire stream — flow ids drawn
// from a small range so probe runs collide, wrap around the array's end
// and lose entries from their middle — and compares every lookup, across
// growth and across clear.
func TestFlowTableMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := flowTable{slots: make([]flowEntry, 16)}
	srcs := map[packet.FlowID]transport.Source{}
	sinks := map[packet.FlowID]transport.Sink{}
	const ids = 200
	removed := 0

	check := func(step int) {
		t.Helper()
		live := 0
		for id := packet.FlowID(0); id < ids; id++ {
			var src transport.Source
			var sink transport.Sink
			if e := tab.find(id); e != nil {
				src, sink = e.src, e.sink
				live++
			}
			if src != srcs[id] || sink != sinks[id] {
				t.Fatalf("step %d flow %d: table has (%v, %v), maps have (%v, %v)", step, id, src, sink, srcs[id], sinks[id])
			}
		}
		if tab.n != live || 4*tab.n > 3*len(tab.slots) {
			t.Fatalf("step %d: n=%d with %d entries found in %d slots", step, tab.n, live, len(tab.slots))
		}
	}

	for step := 0; step < 20000; step++ {
		id := packet.FlowID(rng.Intn(ids))
		// Phases of growth and of drain, so the table fills and empties.
		attach := 5
		if (step/3000)%2 == 1 {
			attach = 2
		}
		switch r := rng.Intn(10); {
		case r < attach:
			s := &blaster{}
			tab.attach(id, s, nil)
			srcs[id] = s
		case r == 9 && id%4 == 0: // most flows' sinks are on another NIC
			s := &recorder{}
			tab.attach(id, nil, s)
			sinks[id] = s
		case r == 8 && id%4 == 0: // the sink's flow completed and retired
			if sinks[id] != nil && srcs[id] == nil {
				removed++
			}
			tab.drop(id, false)
			delete(sinks, id)
		default:
			if srcs[id] != nil && sinks[id] == nil {
				removed++
			}
			tab.drop(id, true)
			delete(srcs, id)
		}
		if step%7 == 0 {
			check(step)
		}
		if step == 11000 {
			size := len(tab.slots)
			tab.clear()
			clear(srcs)
			clear(sinks)
			check(step)
			if len(tab.slots) != size {
				t.Fatal("clear gave up the table's array")
			}
		}
	}
	check(20000)
	if removed < 1000 {
		t.Fatalf("only %d entries were removed; the stream does not exercise deletion", removed)
	}
}

// TestRetiredTableMatchesMap drives a NIC's retired-record table and a Go
// map with the same random insert stream, across growth and clear, and
// compares every lookup. An entry is 32 bytes on 64-bit platforms: what a
// run keeps per flow at the flow's destination.
func TestRetiredTableMatchesMap(t *testing.T) {
	if size := unsafe.Sizeof(retiredEntry{}); unsafe.Sizeof(uintptr(0)) == 8 && size != 32 {
		t.Fatalf("retired entry is %d bytes, want 32", size)
	}
	rng := rand.New(rand.NewSource(9))
	tab := retiredTable{slots: make([]retiredEntry, 16)}
	model := map[packet.FlowID]transport.Retired{}
	const ids = 5000
	check := func(step int) {
		t.Helper()
		for id := packet.FlowID(0); id < ids; id++ {
			want, ok := model[id]
			got := tab.find(id)
			if ok != (got != nil) || ok && *got != want {
				t.Fatalf("step %d flow %d: table has %v, map has %v (present %v)", step, id, got, want, ok)
			}
		}
		if tab.n != len(model) || 4*tab.n > 3*len(tab.slots) {
			t.Fatalf("step %d: n=%d with %d records in %d slots", step, tab.n, len(model), len(tab.slots))
		}
	}
	check(-1)
	for step := 0; step < 3000; step++ {
		id := packet.FlowID(rng.Intn(ids))
		if _, ok := model[id]; ok {
			continue // a flow retires once
		}
		rec := transport.NewRetired(&transport.Flow{Src: packet.NodeID(step), Pkts: 1 + rng.Intn(100)}, nil)
		tab.insert(id, rec)
		model[id] = rec
		if step%97 == 0 {
			check(step)
		}
		if step == 1500 {
			size := len(tab.slots)
			tab.clear()
			clear(model)
			check(step)
			if len(tab.slots) != size {
				t.Fatal("clear gave up the table's array")
			}
		}
	}
	check(3000)
}

// TestNICRefusesSecondAttach: a second sink, or a second live source, for
// one flow ID on one host means two workloads share the ID; the NIC panics
// rather than overwrite the first transport and misdeliver its packets.
func TestNICRefusesSecondAttach(t *testing.T) {
	cfg := DefaultConfig()
	nic := New(sim.NewEngine(), topo.NewStar(2), cfg).NIC(0)
	discard := sinkFunc(func(*packet.Packet, sim.Time) {})
	nic.AttachSink(1, discard)
	nic.AttachSource(newBlaster(1, 0, 1, 100, cfg.MTU)) // the other side of flow 1
	for side, again := range map[string]func(){
		"sink":   func() { nic.AttachSink(1, discard) },
		"source": func() { nic.AttachSource(newBlaster(1, 0, 1, 100, cfg.MTU)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a second %s for flow 1 was accepted", side)
				}
			}()
			again()
		}()
	}
}

// TestReapCallback: the reap callback receives each finished source once,
// after the NIC dropped it from its flow table, and Network.Reset removes
// it, so the next run on the fabric never calls the previous run's owner.
func TestReapCallback(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	net := New(eng, topo.NewStar(3), cfg)
	var reaped []transport.Source
	net.OnReap(func(s transport.Source) {
		if e := net.NIC(0).flows.find(s.Flow().ID); e != nil && e.src != nil {
			t.Errorf("flow %d reaped while still in the flow table", s.Flow().ID)
		}
		reaped = append(reaped, s)
	})
	a, b := newBlaster(1, 0, 1, 20, cfg.MTU), newBlaster(2, 0, 2, 40, cfg.MTU)
	net.NIC(0).AttachSource(a)
	net.NIC(0).AttachSource(b)
	eng.Run()
	if len(reaped) != 2 || reaped[0] != a || reaped[1] != b {
		t.Fatalf("reaped %v, want the 20-packet source then the 40-packet one", reaped)
	}

	eng.Reset()
	net.Reset(2, nil)
	net.NIC(0).AttachSource(newBlaster(3, 0, 1, 5, cfg.MTU))
	eng.Run()
	if len(reaped) != 2 {
		t.Fatalf("the callback survived Reset: %d sources reaped", len(reaped))
	}
}

// retiring is a Sink that retires its flow from inside the HandleData of
// the first packet, as a receiver's completion does.
type retiring struct {
	recorder
	fl  *transport.Flow
	nic *NIC
	old transport.Sink
}

func (r *retiring) HandleData(p *packet.Packet, now sim.Time) {
	r.recorder.HandleData(p, now)
	if r.old == nil {
		r.old = r.nic.Retire(r.fl.ID)
	}
}

func (r *retiring) Retired() transport.Retired { return transport.NewRetired(r.fl, nil) }

// TestRetireAnswersLateDuplicates: a sink that retires hands back the
// sink it replaced and leaves the flow's later data packets to its
// record, which acknowledges each one, is counted by LateDuplicates and
// not as Stray; a second Retire panics, and Network.Reset forgets the
// record.
func TestRetireAnswersLateDuplicates(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	net := New(eng, topo.NewStar(3), cfg)
	src := newBlaster(1, 0, 1, 3, cfg.MTU)
	sink := &retiring{fl: src.flow, nic: net.NIC(1)}
	net.NIC(1).AttachSink(1, sink)
	net.NIC(0).AttachSource(src)
	eng.Run()

	if sink.old != sink {
		t.Fatalf("Retire returned %v, want the retiring sink", sink.old)
	}
	if len(sink.psns) != 1 {
		t.Fatalf("the retired sink saw %d packets, want only the first", len(sink.psns))
	}
	if got := net.LateDuplicates(); got != 2 {
		t.Fatalf("LateDuplicates = %d, want the 2 packets after retirement", got)
	}
	// Each late packet was answered with an ACK, which reached host 0
	// after its blaster was reaped.
	if st := net.Stats(); net.NIC(1).Stray != 0 || st.CtrlDeliv != 2 || net.NIC(0).Stray != 2 {
		t.Fatalf("host 1 stray %d, control delivered %d, host 0 stray %d; want 0, 2, 2",
			net.NIC(1).Stray, st.CtrlDeliv, net.NIC(0).Stray)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a flow retired twice")
			}
		}()
		net.NIC(1).Retire(1)
	}()

	eng.Reset()
	net.Reset(2, nil)
	if got := net.LateDuplicates(); got != 0 || net.NIC(1).retired.find(1) != nil {
		t.Fatalf("Reset kept the record: %d late duplicates", got)
	}
}
