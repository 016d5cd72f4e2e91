package exp

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
	"github.com/irnsim/irn/internal/workload"
)

// streamOn resets w's cached fabric and returns a launcher whose flows are
// specs, numbered from 1, before stream has run.
func streamOn(w *Worker, name string, specs []workload.Spec) *launcher {
	for _, e := range w.engs[:w.used] {
		e.Reset()
	}
	w.net.Reset(1, nil)
	l := &launcher{s: Scenario{Name: name}, net: w.net, flows: make([]transport.Flow, len(specs))}
	for i, sp := range specs {
		l.flows[i] = transport.Flow{ID: packet.FlowID(i + 1), Src: sp.Src, Dst: sp.Dst, Size: sp.Size, Start: sp.Start}
	}
	return l
}

// TestLaunchStreamKeepsPerFlowKeys: streaming each host's launches keeps
// every launch at the (at, rank) key it would have if each flow end were
// queued on its own at setup — one rank per flow end, flow by flow, from
// the clock of the host it touches — while the engine holds one parked
// event per host that has any launch, not two per flow.
func TestLaunchStreamKeepsPerFlowKeys(t *testing.T) {
	w := NewWorker()
	w.Run(Scenario{Name: "k4", Arity: 4, NumFlows: 10})
	hosts := w.top.Hosts()
	specs := append(workload.Incast(hosts, 5, 100_000, 3), workload.Generate(workload.PoissonConfig{
		Hosts: hosts, Load: 0.7, RatePsPerByte: 200, MTU: 1000, HeaderBytes: 60,
		NumFlows: 300, Dist: workload.NewHeavyTailed(), Seed: 3,
	})...)
	l := streamOn(w, "k4", specs)
	last := l.stream(hosts)

	type key struct {
		at   sim.Time
		rank uint64
		e    uint32
	}
	want := make([][]key, hosts)
	clks := make([]sim.Clock, hosts)
	for h := range clks {
		clks[h] = sim.NewClock(uint64(h) + 1) // the fabric's node clocks
	}
	for i, sp := range specs {
		want[sp.Src] = append(want[sp.Src], key{sp.Start, clks[sp.Src].Next(), uint32(i)<<1 | launchSrc})
		want[sp.Dst] = append(want[sp.Dst], key{sp.Start, clks[sp.Dst].Next(), uint32(i)<<1 | launchDst})
	}
	parked := 0
	for h := range want {
		hl := l.hosts[h]
		var got []key
		for k := hl.next; k < hl.end; k++ {
			e := l.launches[k]
			got = append(got, key{l.flows[e>>1].Start, hl.rank + uint64(k-hl.next), e})
		}
		if !slices.Equal(got, want[h]) {
			t.Fatalf("host %d launches\n got %v\nwant %v", h, got, want[h])
		}
		if len(got) > 0 {
			parked++
		}
	}
	if got := w.net.Eng.Pending(); got != parked {
		t.Fatalf("%d events parked for %d flows, want one for each of the %d hosts with a launch", got, len(specs), parked)
	}
	if want := specs[len(specs)-1].Start; last != want {
		t.Fatalf("last arrival %v, want %v", last, want)
	}
}

// TestLaunchStreamRejectsOutOfOrderStarts: a host whose flows do not start
// in nondecreasing order cannot be streamed, and the launcher says which
// host and which flow at setup instead of launching a flow late. No
// Scenario produces such an order (workload.TestIncastThenGenerateStartsInOrder).
func TestLaunchStreamRejectsOutOfOrderStarts(t *testing.T) {
	w := NewWorker()
	w.Run(Scenario{Name: "k4", Arity: 4, NumFlows: 10})
	l := streamOn(w, "unordered", []workload.Spec{
		{Src: 0, Dst: 1, Size: 1000, Start: 500},
		{Src: 2, Dst: 3, Size: 1000, Start: 100},
		{Src: 3, Dst: 0, Size: 1000, Start: 400},
	})
	defer func() {
		msg, _ := recover().(string)
		if want := `scenario "unordered": host 0: flow 3 starts at`; !strings.Contains(msg, want) ||
			!strings.Contains(msg, "previous flow 1") {
			t.Fatalf("panic %q, want one naming host 0, flow 3 and flow 1", msg)
		}
	}()
	l.stream(w.top.Hosts())
}

// TestLauncherShardFillsCacheLines: launcherShard is padded to whole
// 64-byte cache lines, so the shards' slices of the launcher, side by side
// in one array, never share a line.
func TestLauncherShardFillsCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(launcherShard{}); n%64 != 0 {
		t.Fatalf("launcherShard is %d bytes, not a whole number of cache lines: recompute its padding", n)
	}
}
