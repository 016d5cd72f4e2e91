package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/kv"
	"github.com/irnsim/irn/internal/sim"
)

// TestWorkerReuseBitIdentical pins the zero-rebuild contract: a Worker
// that has already run other scenarios — same fabric key (reset path) or
// different (rebuild path), with and without faults — must produce
// byte-identical Results to a fresh construction for every subsequent
// run.
func TestWorkerReuseBitIdentical(t *testing.T) {
	seq := []Scenario{
		{Name: "irn-a", NumFlows: 120, Seed: 11},
		{Name: "irn-b", NumFlows: 120, Seed: 23}, // same key: reset path
		{Name: "roce", NumFlows: 120, Seed: 11, PFC: true, // different key: rebuild
			Transport: TransportRoCE},
		{Name: "irn-faults", NumFlows: 120, Seed: 7, // same key as irn-a, plus faults
			Faults: fault.Spec{LossRate: 0.002, CorruptRate: 0.001}},
		{Name: "irn-c", NumFlows: 120, Seed: 31},              // faults cleared again
		{Name: "dcqcn", NumFlows: 120, Seed: 11, CC: CCDCQCN}, // ECN config changes the key
		{Name: "incast", IncastM: 12, IncastBytes: 400_000, Seed: 5},
	}

	w := NewWorker()
	for i, s := range seq {
		fresh := Run(s)
		reused := w.Run(s)
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("step %d (%s): worker reuse diverged from fresh run\nfresh:  %+v\nreused: %+v",
				i, s.Name, fresh, reused)
		}
	}

	// The same scenario back-to-back on one worker (the trial-sweep
	// shape) must also be self-identical.
	a := w.Run(seq[0])
	b := w.Run(seq[0])
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated run of one scenario on a reused worker diverged")
	}
}

// TestWorkerRebuildsOnStructuralChange: the fabric cache reuses the fabric
// across a new seed or fault model only, and rebuilds on a change to any
// other input of its construction. Each variant differs from the base in
// one field and runs between two base runs, so each transition changes
// exactly that field; every result equals a fresh run.
func TestWorkerRebuildsOnStructuralChange(t *testing.T) {
	base := Scenario{Name: "base", Arity: 4, NumFlows: 60, Seed: 3}
	w := NewWorker()
	run := func(s Scenario, rebuilds int) {
		t.Helper()
		before := w.Rebuilds()
		if got := w.Run(s); !reflect.DeepEqual(got, Run(s)) {
			t.Fatalf("%s: worker run diverged from a fresh run", s.Name)
		}
		if got := w.Rebuilds() - before; got != rebuilds {
			t.Fatalf("%s: worker built %d fabrics, want %d", s.Name, got, rebuilds)
		}
	}
	run(base, 1)
	reseeded := base
	reseeded.Name, reseeded.Seed = "new seed", 4
	run(reseeded, 0)
	faulted := base
	faulted.Name, faulted.Faults = "new faults", fault.Spec{LossRate: 0.002}
	run(faulted, 0)

	for _, v := range []struct {
		name string
		set  func(*Scenario)
	}{
		{"Gbps", func(s *Scenario) { s.Gbps = 100 }},
		{"BufferBytes", func(s *Scenario) { s.BufferBytes = 100_000 }},
		{"PFC", func(s *Scenario) { s.PFC = true }},
		{"ExtraHeader", func(s *Scenario) { s.ExtraHeader = 16 }},
		{"CC DCQCN", func(s *Scenario) { s.CC = CCDCQCN }},
		{"Spray", func(s *Scenario) { s.Spray = true }},
		{"SharedBuffer", func(s *Scenario) { s.SharedBuffer = true }},
		{"Arity", func(s *Scenario) { s.Arity = 6 }},
	} {
		s := base
		s.Name = v.name
		v.set(&s)
		run(s, 1)
		run(base, 1)
	}
}

// TestWorkerPoolWarmReuse: the second trial on a worker must serve its
// packets from the chunks the first one allocated, not the heap — the
// point of keeping the pool across trials.
func TestWorkerPoolWarmReuse(t *testing.T) {
	w := NewWorker()
	s := Scenario{Name: "warm", NumFlows: 150, Seed: 3}
	first := w.Run(s)
	grown := w.net.PoolCap()
	second := w.Run(s)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm trial changed results")
	}
	if first.Census.Injected == 0 || grown == 0 {
		t.Fatalf("first trial injected %d packets from a pool of %d", first.Census.Injected, grown)
	}
	if got := w.net.PoolCap(); got != grown {
		t.Fatalf("second trial grew the pool from %d to %d packets; pool warmth lost", grown, got)
	}
}

// TestFlowMarginalAllocs pins what one more flow costs the allocator on a
// warm worker: the allocation difference between a 2N-flow run and an
// N-flow run, divided by N. Fabric, pool, wheel and NIC tables are warm
// (a 2N run went first) and the per-run arrays are counted once on both
// sides, so what is left is per-flow state — and that is carved from the
// launcher's slabs, 64 objects or bitmap words per heap allocation: a
// sender or a receiver only when no recycled one is free for reuse, and
// bitmap words for IRN and TCP only when the recycled object's own are
// too short. TCP's bitmaps cover the whole message, so a flow past 64×64
// segments takes longer words straight from the heap. A transport that goes back to one object per flow, or a
// launcher that allocates per flow again, costs 1 or more.
func TestFlowMarginalAllocs(t *testing.T) {
	const n = 400
	for _, tc := range []struct {
		name   string
		s      Scenario
		budget float64
	}{
		{"IRN", Scenario{Transport: TransportIRN}, 0.25},
		{"RoCE+PFC", Scenario{Transport: TransportRoCE, PFC: true}, 0.25},
		{"iWARP/TCP", Scenario{Transport: TransportTCP}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			s.Name, s.Seed = "flow-alloc", 5
			w := NewWorker()
			measure := func(flows int) float64 {
				s.NumFlows = flows
				return testing.AllocsPerRun(1, func() { w.Run(s) })
			}
			measure(2 * n)
			base := measure(n)
			double := measure(2 * n)
			perFlow := (double - base) / n
			t.Logf("allocs: %.0f @ %d flows, %.0f @ %d, marginal %.3f/flow", base, n, double, 2*n, perFlow)
			if perFlow > tc.budget {
				t.Fatalf("marginal allocation cost %.3f allocs/flow exceeds the %.2f budget", perFlow, tc.budget)
			}
			if perFlow <= 0 {
				t.Fatalf("marginal allocation cost %.3f/flow — the workload did not scale", perFlow)
			}
		})
	}
}

// TestFlowMarginalBytes pins what one more flow costs in bytes on a warm
// worker, measured the way TestFlowMarginalAllocs counts allocations:
// TotalAlloc of a 2N-flow run minus an N-flow run, divided by N. What a run
// keeps per flow is its transport.Flow, 8 bytes in each of the stats,
// receiver and launch tables, and a 32-byte transport.Retired record in
// its destination NIC's retired table. Senders are reused once the NIC
// reaps them and receivers once their flow completes, each keeping its
// bitmap words when they are long enough for the next flow, so their
// number and their words follow the flows in progress. The budgets sit
// between that (about 290, 260 and 390 B) and a launcher keeping every
// receiver with its words for the run (about 570, 490 and 580 B at this
// size), which exceeds them. (Parked launch events do not show here: the
// warm worker's wheel kept its arrays.)
func TestFlowMarginalBytes(t *testing.T) {
	const n = 500
	for _, tc := range []struct {
		name   string
		s      Scenario
		budget float64
	}{
		{"IRN", Scenario{Transport: TransportIRN}, 420},
		{"RoCE+PFC", Scenario{Transport: TransportRoCE, PFC: true}, 370},
		{"iWARP/TCP", Scenario{Transport: TransportTCP}, 480},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			s.Name, s.Seed = "flow-bytes", 5
			w := NewWorker()
			measure := func(flows int) float64 {
				s.NumFlows = flows
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				w.Run(s)
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc - before.TotalAlloc)
			}
			measure(2 * n)
			base := measure(n)
			double := measure(2 * n)
			perFlow := (double - base) / n
			t.Logf("bytes: %.0f @ %d flows, %.0f @ %d, marginal %.0f B/flow", base, n, double, 2*n, perFlow)
			if perFlow > tc.budget {
				t.Fatalf("marginal memory cost %.0f B/flow exceeds the %.0f B budget", perFlow, tc.budget)
			}
			if perFlow <= 0 {
				t.Fatalf("marginal memory cost %.0f B/flow — the workload did not scale", perFlow)
			}
		})
	}
}

// TestWorkerSurvivesFaultModelPanic: a scenario whose fault spec does not
// fit its topology panics before anything is built, and must leave the
// worker's cache exactly as it was — the previous fabric still paired
// with the previous topology. (The cache used to take the new arity's
// topology first, so the next run of the old scenario generated its
// workload for the wrong host count.)
func TestWorkerSurvivesFaultModelPanic(t *testing.T) {
	good := Scenario{Name: "k6", NumFlows: 120, Seed: 11}
	bad := Scenario{Name: "k4-bad-faults", Arity: 4, NumFlows: 120, Seed: 11,
		Faults: fault.Spec{Flaps: []fault.Flap{{Link: 1 << 20, DownAt: 1000}}}}

	w := NewWorker()
	want := w.Run(good)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range fault link did not panic")
			}
		}()
		w.Run(bad)
	}()
	if got := w.Run(good); !reflect.DeepEqual(got, want) {
		t.Fatalf("run after a recovered panic diverged\nfresh: %+v\nafter: %+v", want, got)
	}
	if w.Rebuilds() != 1 {
		t.Fatalf("worker built %d fabrics, want the one the panic left cached", w.Rebuilds())
	}
}

// TestWorkerRejectsBadFabricShape: a Scenario built in code with a fabric
// no fat-tree can take, a negative link rate or load, an incast fan-in
// outside [0, hosts) or a negative flow or KV request count panics with a
// message naming the scenario and the field before the worker builds
// anything — an odd or too-small arity used to panic inside
// topo.NewFatTree, a negative buffer ran with every packet dropped, a
// negative load or an oversized fan-in panicked in the workload generator,
// a negative rate in the launcher, and a negative count ran nothing — and
// the worker's cache is left as it was. So does each rule Validate added
// since: a rate or load the picosecond clock cannot hold, a negative
// delay, an unknown enum, a congestion control on iWARP (which has its
// own), a fault window before time zero, and a kv BDP cap the verbs PSN
// window cannot hold.
func TestWorkerRejectsBadFabricShape(t *testing.T) {
	good := Scenario{Name: "k6", NumFlows: 120, Seed: 11}
	w := NewWorker()
	want := w.Run(good)
	for _, tc := range []struct {
		name string
		s    Scenario
		want string
	}{
		{"odd arity", Scenario{Arity: 5}, "arity 5 must be even"},
		{"arity 1", Scenario{Arity: 1}, "arity 1 must be even"},
		{"negative arity", Scenario{Arity: -4}, "arity -4 must be even"},
		{"negative buffer", Scenario{BufferBytes: -1}, "buffer -1 bytes must be >= 0"},
		{"negative rate", Scenario{Gbps: -5}, "Gbps -5 must be >= 0"},
		{"negative load", Scenario{Load: -1}, "Load -1 must be >= 0"},
		{"incast of every host", Scenario{Arity: 4, IncastM: 16}, "fan-in 16 must be in [0, 16)"},
		{"negative incast", Scenario{IncastM: -1}, "fan-in -1 must be in [0, 54)"},
		{"negative flows", Scenario{NumFlows: -1}, "flow count -1 must be >= 0"},
		{"negative kv", Scenario{KV: kv.Options{Requests: -1}}, "KV request count -1 must be >= 0"},
		{"rate past a byte per ps", Scenario{Gbps: 50000}, "Gbps 50000 must be"},
		{"arrivals past the clock", Scenario{Load: 1e-300}, "arrivals within the simulator's clock"},
		{"unknown cc", Scenario{CC: 9}, "unknown congestion control 9"},
		{"cc on iwarp", Scenario{Transport: TransportTCP, CC: CCDCQCN}, "congestion control DCQCN on iWARP"},
		{"flap before time zero", Scenario{Faults: fault.Spec{Flaps: []fault.Flap{{Link: 1, DownAt: -5}}}}, "not a window from time 0 on"},
		{"kv cap past the PSN window", Scenario{BDPCapScale: 1000, KV: kv.Options{Requests: 10}}, "PSN window"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			s.Name = "bad-" + tc.name
			if s.NumFlows == 0 {
				s.NumFlows = 120
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("scenario %q", s.Name)) || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q and saying %q", msg, s.Name, tc.want)
				}
			}()
			w.Run(s)
		})
	}
	if got := w.Run(good); !reflect.DeepEqual(got, want) {
		t.Fatal("run after the rejected scenarios diverged from the first")
	}
	if w.Rebuilds() != 1 {
		t.Fatalf("worker built %d fabrics, want the first one still cached", w.Rebuilds())
	}
}

// TestWorkerReclaimsCutOffPackets: a lossy run cut off at a short grace
// leaves packets in flight and retransmission timers armed; the next runs
// on the worker — another transport on the same fabric, then the first
// again — must each equal a fresh worker's, close the pool equation, and
// after the first round draw every packet from the chunks the pool
// already owns, the stranded ones included.
func TestWorkerReclaimsCutOffPackets(t *testing.T) {
	irn := Scenario{Name: "cut-irn", NumFlows: 300, Seed: 9, Faults: fault.Spec{LossRate: 0.01}}
	roce := irn
	roce.Name, roce.Transport = "cut-roce", TransportRoCE
	cut := runOpts{grace: 20 * sim.Microsecond}

	w := NewWorker()
	var caps []int
	for i, s := range []Scenario{irn, roce, irn, roce} {
		got, _, _ := w.run(s, cut)
		if got.InFlight == 0 || got.Summary.Incomplete == 0 {
			t.Fatalf("run %d (%s): %d packets in flight, %d flows incomplete — the cut-off stranded nothing",
				i, s.Name, got.InFlight, got.Summary.Incomplete)
		}
		if err := got.CheckConservation(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if want, _, _ := NewWorker().run(s, cut); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%s) on the reused worker diverged from a fresh one", i, s.Name)
		}
		caps = append(caps, w.net.PoolCap())
	}
	if w.Rebuilds() != 1 {
		t.Fatalf("worker built %d fabrics; the transports must share one", w.Rebuilds())
	}
	if caps[2] != caps[1] || caps[3] != caps[1] {
		t.Fatalf("pool kept growing across repeats: %v packets", caps)
	}
}
