package kv

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/verbs"
)

// freeFrames counts the frames on p's free list.
func freeFrames(p *framePool) int {
	n := 0
	for f := p.free; f != nil; f = f.next {
		n++
	}
	return n
}

// chaosFatTree deploys the service on a k=4 fat-tree under the named
// chaos suite, cycling for as long as the clients issue.
func chaosFatTree(t *testing.T, suite string, o Options, goBackN bool) (*Service, *sim.Engine) {
	t.Helper()
	top := topo.NewFatTree(4)
	su, ok := fault.SuiteByName(suite)
	if !ok {
		t.Fatalf("no chaos suite %q", suite)
	}
	const cycle = 400 * sim.Microsecond
	span := sim.Duration(o.Requests/o.Clients) * defaultMix.issueGap
	sched := su.Build(top, sim.Time(100*sim.Microsecond), cycle, int(span/cycle), 9)
	m, err := fault.New(sched.MustCompile(top), len(top.Links()), 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig()
	cfg.Faults = m
	eng := sim.NewEngine()
	net := fabric.New(eng, top, cfg)
	hosts := make([]packet.NodeID, top.Hosts())
	for i := range hosts {
		hosts[i] = packet.NodeID(i)
	}
	qcfg := verbs.DefaultConfig()
	qcfg.GoBackN = goBackN
	return New(net, Place(hosts, 4, o.Followers, o.Clients), qcfg, o, 9), eng
}

// TestReplicasConvergeAndFramesReturn runs the service through a chaos
// schedule and on until the engine is dry — every fault healed, every
// retransmission delivered — and checks what frame reuse could break: the
// leader's store and every follower's are byte-identical, every value is
// one request's payload whole (the generator's pattern, so a value
// stitched from two requests fails), the leader committed the Puts it
// acknowledged and none but those a client gave up on besides, and every
// frame is back in its pool except the cached last response per client.
func TestReplicasConvergeAndFramesReturn(t *testing.T) {
	for _, suite := range []string{"flap-storm", "rolling"} {
		for _, mode := range []Mode{ModeSend, ModeWriteImm} {
			for _, gbn := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/GoBackN=%v", suite, mode, gbn), func(t *testing.T) {
					replicasConverge(t, suite, mode, gbn)
				})
			}
		}
	}
}

func replicasConverge(t *testing.T, suite string, mode Mode, goBackN bool) {
	// A wide key space: most keys are written once or twice, so a corrupted
	// replication write is usually its key's last and shows in the final
	// state; the rest exercise the in-place overwrite.
	o := Options{Requests: 3000, Mode: mode}.WithDefaults()
	svc, eng := chaosFatTree(t, suite, o, goBackN)
	svc.mix.putFraction, svc.mix.keySpace = 0.7, 1024
	svc.Start()
	eng.Run()
	rep := svc.Report()
	if !svc.Done() {
		t.Fatalf("engine dry with %d of %d requests resolved", rep.Resolved, o.Requests)
	}
	if rep.Retries == 0 {
		t.Error("no client retries: the chaos never reached the service")
	}
	srv := svc.leader
	retx, tos, _, _ := svc.TransportStats()
	t.Logf("%d Puts committed (%d acknowledged), %d retries, %d give-ups, %d read-only, %d retransmits, %d timeouts",
		srv.commit, rep.Committed, rep.Retries, rep.GiveUps, rep.ReadOnly, retx, tos)
	if srv.log.Len() != 0 {
		t.Fatalf("%d entries still uncommitted with the fabric healed and the engine dry", srv.log.Len())
	}
	// A Put the client gave up on can still commit; nothing else may.
	if c := uint64(srv.commit); c < rep.Committed || c > rep.Committed+rep.GiveUps || c == 0 {
		t.Errorf("leader committed %d Puts, clients saw %d acknowledged and gave up on %d requests", c, rep.Committed, rep.GiveUps)
	}
	for k, v := range srv.store {
		if len(v) != svc.mix.valueBytes {
			t.Fatalf("key %d: %d-byte value, want %d", k, len(v), svc.mix.valueBytes)
		}
		for i := range v {
			if v[i] != v[0]+byte(i) {
				t.Fatalf("key %d: byte %d breaks the payload pattern: a value stitched from two requests", k, i)
			}
		}
	}
	for j, f := range svc.followers {
		if len(f.store) != len(srv.store) {
			t.Errorf("follower %d holds %d keys, the leader %d", j, len(f.store), len(srv.store))
		}
		for k, v := range srv.store {
			if !bytes.Equal(f.store[k], v) {
				t.Errorf("follower %d diverged from the leader on key %d", j, k)
			}
		}
	}

	cachedResp := 0
	for i, ld := range srv.lastDone {
		if ld.resp != nil {
			cachedResp++
			if ld.resp.refs != 1 {
				t.Errorf("client %d's cached response holds %d references, want 1", i, ld.resp.refs)
			}
		}
	}
	if free := freeFrames(&srv.pool); free+cachedResp != srv.pool.carved {
		t.Errorf("leader: %d of %d frames free with %d cached responses: a reference leaked", free, srv.pool.carved, cachedResp)
	}
	for i, c := range svc.clients {
		if free := freeFrames(&c.pool); free != c.pool.carved || c.ep.posted.Len() != 0 {
			t.Errorf("client %d: %d of %d frames free, %d still posted", i, free, c.pool.carved, c.ep.posted.Len())
		}
	}
	for _, ep := range append(append([]*endpoint(nil), srv.chalves...), srv.fhalves...) {
		if ep.posted.Len() != 0 {
			t.Errorf("leader: %d frames still posted on a QP with the engine dry", ep.posted.Len())
		}
	}
}

// TestRoundTripAllocatesNothing: on a warmed service one Put — request,
// replication to both followers, their acks, commit, response — and one
// Get allocate nothing at all, in either wire mode: frames, verbs packets,
// WQEs and fabric packets all come off free lists and go back.
func TestRoundTripAllocatesNothing(t *testing.T) {
	for _, mode := range []Mode{ModeSend, ModeWriteImm} {
		o := Options{Requests: 600, Mode: mode}.WithDefaults()
		svc, eng := newStarService(o, fault.Spec{})
		svc.Start()
		eng.Run()
		if !svc.Done() {
			t.Fatalf("%v: warm-up run did not finish", mode)
		}
		c := svc.clients[0]
		r := o.Requests
		roundTrip := func() {
			for _, put := range []bool{true, false} {
				r += o.Clients // client 0's next sequence number
				c.enqueue(issue{r: r, at: eng.Now(), put: put, key: 3})
				eng.Run()
			}
		}
		roundTrip() // key 3 is in every store at its final length
		resolved, committed := c.st.Resolved, svc.leader.commit
		if allocs := testing.AllocsPerRun(20, roundTrip); allocs != 0 {
			t.Errorf("%v: a Put and a Get round trip allocate %.2f times, want 0", mode, allocs)
		}
		if got := c.st.Resolved - resolved; got != 42 || svc.leader.commit-committed != 21 || c.st.GiveUps != 0 {
			t.Errorf("%v: %d of 42 requests resolved, %d of 21 Puts committed, %d give-ups",
				mode, got, svc.leader.commit-committed, c.st.GiveUps)
		}
	}
}
