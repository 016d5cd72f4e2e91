package exp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/irnsim/irn/internal/kv"
)

// figkvScenario pulls one scenario of the figkv preset at a test scale.
func figkvScenario(t *testing.T, sc Scale, name string) Scenario {
	t.Helper()
	e := FigureKV(sc)
	for _, s := range e.Scenarios {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figkv has no scenario %q", name)
	return Scenario{}
}

// TestFigKVBlackoutDegrades pins the graceful-degradation point of the
// preset: under the sustained leader-uplink blackout the leader must
// enter read-only mode and reject Puts, clients must exhaust their
// retry budgets, and every request must still resolve (no hangs).
func TestFigKVBlackoutDegrades(t *testing.T) {
	s := figkvScenario(t, Scale{Flows: 40}, "IRN kv blackout send")
	res := Run(s)
	k := res.KV
	if k == nil {
		t.Fatal("no KV report")
	}
	if k.Resolved != k.Issued {
		t.Fatalf("blackout run hung: %d/%d resolved", k.Resolved, k.Issued)
	}
	if k.DegradedEnters == 0 {
		t.Error("leader never degraded under a replication blackout")
	}
	if k.ReadOnly == 0 {
		t.Error("no read-only rejections while degraded")
	}
	if k.GiveUps == 0 {
		t.Error("no client exhausted its retry budget during the blackout")
	}
}

// TestFigKVIRNBeatsRoCEUnderFlap pins the headline comparison at the
// default suite scale: under the leader flap storm IRN's selective
// retransmission must deliver strictly higher availability and strictly
// lower p99 commit latency than RoCE+PFC go-back-N.
func TestFigKVIRNBeatsRoCEUnderFlap(t *testing.T) {
	sc := Scale{Flows: 4000}
	roce := Run(figkvScenario(t, sc, "RoCE+PFC kv flap-leader send"))
	irn := Run(figkvScenario(t, sc, "IRN kv flap-leader send"))
	if roce.KV == nil || irn.KV == nil {
		t.Fatal("missing KV reports")
	}
	if irn.KV.Availability <= roce.KV.Availability {
		t.Errorf("availability: IRN %.4f vs RoCE %.4f, want IRN strictly higher",
			irn.KV.Availability, roce.KV.Availability)
	}
	if irn.KV.CommitP99 >= roce.KV.CommitP99 {
		t.Errorf("commit p99: IRN %v vs RoCE %v, want IRN strictly lower",
			irn.KV.CommitP99, roce.KV.CommitP99)
	}
}

// TestKVMarginalAllocs pins the steady-state allocation cost of the kv
// datapath. Fabric and service construction dominate any single run, so
// the assertion is on the *marginal* cost: the allocation difference
// between a 2R-request run and an R-request run, divided by R. A request
// in steady state allocates nothing: its frames — the client's request,
// the leader's copy of a Put, the response — come from per-actor pools
// and go back at the send CQE, VPackets and Request WQEs come off per-QP
// free lists (masters return at the cumulative ack, wire copies at the
// receiving QP), every ring consumer decodes in place
// (verbs.Memory.View), the stores overwrite values in place, Receive WQEs
// and staged CQEs live by value in rings and the queues keep their
// arrays. What is left at this size is the pools, free lists and queues
// still growing to the longer run's high-water mark. A regression that
// copies per delivery, allocates per packet or frame, or reallocates per
// queue head multiplies the count.
func TestKVMarginalAllocs(t *testing.T) {
	measure := func(requests int) float64 {
		s := Scenario{
			Name:      "kv-alloc",
			Transport: TransportIRN,
			Seed:      7,
			KV:        kv.Options{Requests: requests, Mode: kv.ModeWriteImm},
		}
		return testing.AllocsPerRun(2, func() { Run(s) })
	}
	const r = 60
	base := measure(r)
	double := measure(2 * r)
	perReq := (double - base) / r
	t.Logf("allocs: %.0f @ %d requests, %.0f @ %d, marginal %.1f/request", base, r, double, 2*r, perReq)
	// Measured 1.4 allocs/request (free-list and pool growth at this
	// size); one allocation per frame adds three, one per packet or per
	// delivery ten or more.
	if perReq > 2 {
		t.Fatalf("marginal kv allocation cost %.1f allocs/request exceeds the 2 budget", perReq)
	}
	if perReq <= 0 {
		t.Fatalf("marginal kv allocation cost %.1f/request — the workload did not scale", perReq)
	}
}

// TestKVReplicasMustFitFabric: a kv scenario on a fabric with fewer hosts
// than replicas (arity 2: two hosts, three replicas by default) used to
// hang in placement; it now fails the way a fault spec that does not fit
// the topology does — a panic naming the scenario — and the worker runs
// the next scenario as a fresh one would.
func TestKVReplicasMustFitFabric(t *testing.T) {
	bad := Scenario{Name: "kv-on-two-hosts", Arity: 2, KV: kv.Options{Requests: 10}}
	good := Scenario{Name: "kv-ok", Seed: 3, KV: kv.Options{Requests: 30}}
	w := NewWorker()
	result := make(chan any, 1)
	go func() {
		defer func() { result <- recover() }()
		w.Run(bad)
	}()
	select {
	case r := <-result:
		msg := fmt.Sprint(r)
		if r == nil || !strings.Contains(msg, `scenario "kv-on-two-hosts"`) || !strings.Contains(msg, "need 3 hosts, the fabric has 2") {
			t.Fatalf("run on a two-host fabric ended with %v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run on a two-host fabric did not return")
	}
	if got, want := w.Run(good), NewWorker().Run(good); !reflect.DeepEqual(got, want) {
		t.Fatalf("run after the recovered panic diverged\nfresh: %+v\nafter: %+v", want, got)
	}
}

// TestOneRunCarriesFlowsAndKV: one scenario carries the kv service and a
// Poisson background load together — figkv's leader flap storm plus 300
// flows at half load. Every flow is accounted for, every request
// resolves, and the run stays on one engine though it asks for four.
// Flows are numbered after the kv QPs: numbered from 1, a few of them
// would share a host and a flow ID with a QP here, which the NIC refuses
// with a panic.
func TestOneRunCarriesFlowsAndKV(t *testing.T) {
	kvOnly := figkvScenario(t, Scale{Flows: 40}, "IRN kv flap-leader send")
	mixed := kvOnly
	mixed.NumFlows = 300
	mixed.Load = 0.5
	mixed.Shards = 4

	res := Run(mixed)
	if res.KV == nil {
		t.Fatal("mixed run produced no KV report")
	}
	if n := len(res.ShardStats.Shards); n != 1 {
		t.Fatalf("mixed run spanned %d shard engines, want 1", n)
	}
	if n := res.Summary.Flows + res.Summary.Incomplete; n != 300 {
		t.Fatalf("mixed run accounted for %d flows, want 300", n)
	}
	if k := res.KV; k.Resolved != k.Issued || k.Issued != uint64(mixed.KV.Requests) {
		t.Fatalf("mixed run resolved %d of %d requests (%d scheduled)", k.Resolved, k.Issued, mixed.KV.Requests)
	}
	alone := Run(kvOnly)
	t.Logf("flows %d completed, %d incomplete; kv availability %.3f with the flows, %.3f without",
		res.Summary.Flows, res.Summary.Incomplete, res.KV.Availability, alone.KV.Availability)
}
