package fabric

import (
	"math/rand"
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/transport"
)

// TestFlowTableMatchesMaps drives a NIC's flow table and the two Go maps
// it replaced with the same random attach / reap stream — flow ids drawn
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
		default:
			if srcs[id] != nil && sinks[id] == nil {
				removed++
			}
			tab.dropSource(id)
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
