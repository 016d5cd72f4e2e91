package kv

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/verbs"
)

// TestLeaderLogBounded commits a few thousand Puts on a fault-free
// service and checks the leader retains only uncommitted entries — at
// most one per client — while followers keep seeing absolute log indices,
// and that a follower ack for an index already dropped is ignored exactly
// like one for an index never appended.
func TestLeaderLogBounded(t *testing.T) {
	o := Options{Requests: 3000, Mode: ModeWriteImm, PutFraction: 0.9}.WithDefaults()
	svc, eng := newStarService(o, fault.Spec{})
	svc.Start()
	maxRetained := 0
	for !svc.Done() {
		at, ok := eng.NextEventTime()
		if !ok {
			t.Fatal("engine drained before every request resolved")
		}
		eng.RunUntil(at)
		if srv := svc.leader; srv != nil {
			maxRetained = max(maxRetained, srv.log.Len())
		}
	}
	rep := svc.Report()
	checkHealthy(t, svc, rep)
	srv := svc.leader
	if maxRetained == 0 || maxRetained > o.Clients {
		t.Errorf("leader retained up to %d log entries with %d clients", maxRetained, o.Clients)
	}
	if srv.log.Len() != 0 || uint64(srv.commit) != rep.Committed || srv.commit <= logSlots {
		t.Fatalf("after the run: %d entries retained, commit %d, %d Puts committed", srv.log.Len(), srv.commit, rep.Committed)
	}

	responses := append([]uint32(nil), srv.respSeq...)
	for _, idx := range []int{0, srv.commit - 1, srv.commit, srv.commit + 7} {
		srv.onFollowerCQE(0, verbs.CQE{Receive: true, Imm: uint32(idx), At: eng.Now()})
		if srv.log.Len() != 0 || uint64(srv.commit) != rep.Committed {
			t.Fatalf("late ack for index %d moved the log: %d retained, commit %d", idx, srv.log.Len(), srv.commit)
		}
	}
	for i, n := range srv.respSeq {
		if n != responses[i] {
			t.Errorf("late acks made the leader answer client %d again", i)
		}
	}
}

// TestUnmarshalOwnsViewAliases pins the two decode contracts: the
// exported decoders return a value that survives the buffer being
// rewritten, the in-place views alias it.
func TestUnmarshalOwnsViewAliases(t *testing.T) {
	reqFrame := MarshalRequest(nil, Request{Op: OpPut, Key: 1, Value: []byte("abc")})
	owned, _, _ := UnmarshalRequest(reqFrame)
	view, _, _ := viewRequest(reqFrame)
	respFrame := MarshalResponse(nil, Response{Status: RespOK, Value: []byte("xyz")})
	ownedResp, _, _ := UnmarshalResponse(respFrame)
	viewResp, _, _ := viewResponse(respFrame)
	for i := range reqFrame {
		reqFrame[i] = 0xff
	}
	for i := range respFrame {
		respFrame[i] = 0xff
	}
	if string(owned.Value) != "abc" || string(ownedResp.Value) != "xyz" {
		t.Errorf("Unmarshal values changed with the buffer: %q %q", owned.Value, ownedResp.Value)
	}
	if string(view.Value) != "\xff\xff\xff" || string(viewResp.Value) != "\xff\xff\xff" {
		t.Errorf("views did not alias the buffer: %q %q", view.Value, viewResp.Value)
	}
	if cap(MarshalRequest(nil, owned)) != reqHeaderLen+3 || cap(MarshalResponse(nil, ownedResp)) != respHeaderLen+3 {
		t.Error("a nil destination is not allocated at the frame's exact size")
	}
}

// bucketOfReference is the phase lookup as it was before windows were
// resolved at construction: the first window holding t, its name looked
// up among the bucket names.
func bucketOfReference(phases []Phase, names []string, t sim.Time) int {
	for _, w := range phases {
		if t >= w.From && (w.To == 0 || t < w.To) {
			for b, n := range names {
				if n == w.Name {
					return b
				}
			}
		}
	}
	return 0
}

// TestBucketOfMatchesReference compares the resolved lookup with the
// reference on random window sets Options.Validate accepts — ordered and
// disjoint, with repeated names, empty windows and open-ended tails — at
// every boundary and its neighbours.
func TestBucketOfMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"steady", "flap", "drain", "flap", "blackout", "recover"}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(8)
		phases := make([]Phase, n)
		at := sim.Time(rng.Intn(5))
		for k := range phases {
			w := Phase{Name: names[rng.Intn(len(names))]}
			w.From = at + sim.Time(rng.Intn(4))
			w.To = w.From + sim.Time(rng.Intn(5)) // may be empty
			if w.To == 0 {
				w.To = 1
			}
			at = w.To
			if k == n-1 && rng.Intn(2) == 0 {
				w.To = 0 // open-ended tail
			}
			phases[k] = w
		}
		if err := (Options{Followers: 1, Phases: phases}).Validate(2); err != nil {
			t.Fatalf("Validate rejected ordered disjoint windows: %v", err)
		}
		s := &Service{}
		s.phaseNames, s.windows = resolvePhases(phases)
		for tm := sim.Time(0); tm < 40; tm++ {
			if got, want := s.bucketOf(tm), bucketOfReference(phases, s.phaseNames, tm); got != want {
				t.Fatalf("bucketOf(%d) = %d, reference %d for %+v", tm, got, want, phases)
			}
		}
	}
}

// issueFired is one request arrival as the engine orders it, with what it
// asks.
type issueFired struct {
	at   sim.Time
	rank uint64
	r    int
	put  bool
	key  uint64
}

// issuesUpFront is the request schedule as the service built and queued
// it before arrivals were streamed, kept as the reference: the whole
// table generated at construction, request r for client r % Clients, then
// one rank drawn per request in index order from the issuing host's clock.
// clk maps a host to the clock to draw from.
func issuesUpFront(o Options, seed uint64, pl Placement, clk func(packet.NodeID) *sim.Clock) []issueFired {
	rngs := make([]*sim.RNG, o.Clients)
	ts := make([]sim.Time, o.Clients)
	for i := range rngs {
		rngs[i] = sim.NewRNG(sim.DeriveSeed(seed, "kv/arrivals", i))
		ts[i] = o.IssueStart
	}
	out := make([]issueFired, o.Requests)
	for r := range out {
		i := r % o.Clients
		gap := sim.Duration(float64(o.IssueGap) * rngs[i].ExpFloat64())
		ts[i] = ts[i].Add(gap)
		out[r] = issueFired{
			at:  ts[i],
			r:   r,
			put: rngs[i].Float64() < o.PutFraction,
			key: uint64(rngs[i].Intn(o.KeySpace)),
		}
	}
	for r := range out {
		out[r].rank = clk(pl.Clients[r%o.Clients]).Next()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].at != out[b].at {
			return out[a].at < out[b].at
		}
		return out[a].rank < out[b].rank
	})
	return out
}

// TestIssueStreamMatchesUpFrontReference holds the per-client cursors to
// the up-front reference: every request keeps its (time, rank, index) and
// its op and key, and every host clock ends on the same sequence number —
// with a host per client, with clients outnumbering the free hosts so that
// several share a host clock (and one shares the leader's), with a request
// count that leaves the last round partial, and with fewer requests than
// clients. IssueGap 1 ps collapses arrivals onto shared instants, where
// only the rank orders them.
func TestIssueStreamMatchesUpFrontReference(t *testing.T) {
	spread := func(o Options) Placement {
		pl := Placement{Leader: 0, Followers: []packet.NodeID{1, 2}}
		for i := 0; i < o.Clients; i++ {
			pl.Clients = append(pl.Clients, packet.NodeID(3+i))
		}
		return pl
	}
	shared := func(o Options) Placement {
		hosts := []packet.NodeID{0, 1, 2, 3, 4}
		return Place(hosts, 5, 2, o.Clients) // two free hosts, then round-robin over all five
	}
	for _, tc := range []struct {
		name  string
		o     Options
		place func(Options) Placement
	}{
		{"host-per-client", Options{Requests: 600, Clients: 6}, spread},
		{"shared-hosts", Options{Requests: 700, Clients: 7}, shared},
		{"partial-round", Options{Requests: 603, Clients: 7}, shared},
		{"partial-round-spread", Options{Requests: 599, Clients: 6}, spread},
		{"fewer-requests-than-clients", Options{Requests: 3, Clients: 7}, shared},
		{"same-instant", Options{Requests: 500, Clients: 7, IssueGap: 1}, shared},
	} {
		o := tc.o.WithDefaults()
		o.Mode = ModeWriteImm
		pl := tc.place(o)
		eng := sim.NewEngine()
		net := fabric.New(eng, topo.NewStar(10), fabric.DefaultConfig())
		svc := New(net, pl, verbs.DefaultConfig(), o, 11)

		// The reference draws from copies of the fabric's clocks: first the
		// attach events' ranks, as Start draws them, then the requests'.
		refClk := map[packet.NodeID]*sim.Clock{}
		clk := func(h packet.NodeID) *sim.Clock {
			if refClk[h] == nil {
				c := *net.Clock(h)
				refClk[h] = &c
			}
			return refClk[h]
		}
		clk(pl.Leader).Next()
		for _, h := range pl.Followers {
			clk(h).Next()
		}
		for _, h := range pl.Clients {
			clk(h).Next()
		}
		want := issuesUpFront(o, 11, pl, clk)

		lastIssue := svc.Start()
		if eng.Pending() > 1+o.Followers+2*o.Clients {
			t.Fatalf("%s: %d events parked by Start", tc.name, eng.Pending())
		}
		var got []issueFired
		var last sim.Time
		for i := range svc.cursors {
			c := svc.cursors[i] // Start generated request 0 into c.next
			rng := *c.rng
			c.rng = &rng // walk a copy of the stream; the run needs the original
			n := c.left + 1
			if o.Requests <= i {
				n = 0 // a client with no requests at all
			}
			for k := 0; k < n; k++ {
				got = append(got, issueFired{c.next.at, c.first + uint64(k)*c.stride, c.next.r, c.next.put, c.next.key})
				last = max(last, c.next.at)
				if c.advance(&o) != (k < n-1) {
					t.Fatalf("%s: client %d stream length is not %d", tc.name, i, n)
				}
			}
		}
		sort.Slice(got, func(a, b int) bool {
			if got[a].at != got[b].at {
				return got[a].at < got[b].at
			}
			return got[a].rank < got[b].rank
		})
		if !reflect.DeepEqual(got, want) {
			for k := range want {
				if k >= len(got) || got[k] != want[k] {
					t.Fatalf("%s: arrival %d of %d/%d: streamed %+v, reference %+v (placement %v)",
						tc.name, k, len(got), len(want), got[min(k, len(got)-1)], want[k], pl.Clients)
				}
			}
			t.Fatalf("%s: %d arrivals streamed, reference %d", tc.name, len(got), len(want))
		}
		if lastIssue != last {
			t.Errorf("%s: Start returned last issue %d, the schedule's is %d", tc.name, lastIssue, last)
		}
		for h, c := range refClk {
			if *net.Clock(h) != *c {
				t.Errorf("%s: host %d clock ended at %+v, reference %+v", tc.name, h, *net.Clock(h), *c)
			}
		}

		eng.RunUntil(lastIssue.Add(sim.Duration(200 * sim.Millisecond)))
		if rep := svc.Report(); !svc.Done() || rep.Issued != uint64(o.Requests) {
			t.Errorf("%s: %d of %d requests issued, %d resolved", tc.name, rep.Issued, o.Requests, rep.Resolved)
		}
	}
}

// chaosStar builds a star fabric whose every link flaps for the length of
// a run of the given number of requests — the shape of a chaos run: the
// fault schedule and the request schedule both grow with the run.
func chaosStar(t *testing.T, o Options) (*sim.Engine, *fabric.Network, *fault.Model, Placement, int) {
	t.Helper()
	hosts := 1 + o.Followers + o.Clients
	top := topo.NewStar(hosts)
	span := sim.Duration(o.Requests/o.Clients) * o.IssueGap
	var spec fault.Spec
	for l := range top.Links() {
		for at := sim.Time(100 * sim.Microsecond); at < sim.Time(span); at = at.Add(400 * sim.Microsecond) {
			spec.Flaps = append(spec.Flaps, fault.Flap{Link: l, DownAt: at, UpAt: at.Add(6 * sim.Microsecond)})
		}
	}
	m, err := fault.New(spec, len(top.Links()), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig()
	cfg.Faults = m
	eng := sim.NewEngine()
	net := fabric.New(eng, top, cfg)
	pl := Placement{Leader: 0}
	for j := 0; j < o.Followers; j++ {
		pl.Followers = append(pl.Followers, packet.NodeID(1+j))
	}
	for i := 0; i < o.Clients; i++ {
		pl.Clients = append(pl.Clients, packet.NodeID(1+o.Followers+i))
	}
	return eng, net, m, pl, 2 * len(top.Links())
}

// TestParkedEventsIndependentOfRunLength: right after Network.Reset and
// Service.Start the engine holds the attach events, one request per client
// and one transition per faulted direction, whether the run is 20 000
// requests long or 80 000.
func TestParkedEventsIndependentOfRunLength(t *testing.T) {
	for _, requests := range []int{20_000, 80_000} {
		o := Options{Requests: requests, Mode: ModeWriteImm}.WithDefaults()
		eng, net, m, pl, dirs := chaosStar(t, o)
		eng.Reset()
		net.Reset(5, m)
		svc := New(net, pl, verbs.DefaultConfig(), o, 5)
		svc.Start()
		attach := 1 + o.Followers + o.Clients
		if got, bound := eng.Pending(), attach+o.Clients+dirs; got > bound {
			t.Errorf("%d requests: %d events parked, bound %d (attach %d + clients %d + faulted directions %d)",
				requests, got, bound, attach, o.Clients, dirs)
		}
	}
}

// heapProbe collects and measures the live heap from inside a run.
type heapProbe struct{ live uint64 }

func (p *heapProbe) HandleEvent(uint8, uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.live = ms.HeapAlloc
}

// TestKVHeapFlatInRequests runs 20 000 and 80 000 requests under chaos on
// one warm engine and fabric and measures the live heap halfway through
// each: what a run keeps alive — parked events, the request schedule,
// Request WQEs — must not grow with its length.
func TestKVHeapFlatInRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 100 000 requests")
	}
	o := Options{Requests: 80_000, Mode: ModeWriteImm}.WithDefaults()
	// One compiled fault schedule, long enough for the longer run, serves
	// both: the table is the run's input, the same size on either side.
	eng, net, m, pl, _ := chaosStar(t, o)
	measure := func(requests int) uint64 {
		o := o
		o.Requests = requests
		eng.Reset()
		net.Reset(5, m)
		svc := New(net, pl, verbs.DefaultConfig(), o, 5)
		lastIssue := svc.Start()
		probe := &heapProbe{}
		eng.ScheduleEvent(lastIssue/2, probe, 0, 0)
		eng.RunUntil(lastIssue.Add(sim.Duration(200 * sim.Millisecond)))
		if !svc.Done() || probe.live == 0 {
			t.Fatalf("%d requests: run did not finish (probe %d)", requests, probe.live)
		}
		return probe.live
	}
	measure(2_000) // warm the wheel, the pool and the rings
	small, large := measure(20_000), measure(80_000)
	t.Logf("live heap mid-run: %d B at 20k requests, %d B at 80k", small, large)
	if diff := float64(large) - float64(small); diff > 0.10*float64(small) {
		t.Errorf("live heap grew %.0f%% from 20k to 80k requests (%d → %d B)", 100*diff/float64(small), small, large)
	}
}
