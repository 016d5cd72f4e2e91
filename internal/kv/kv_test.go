package kv

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
	"github.com/irnsim/irn/internal/verbs"
)

// runKV spins up a service on a single-switch star under the given
// faults and runs it to completion (or the deadline).
func runKV(t *testing.T, o Options, faults fault.Spec) (*Service, *Report) {
	t.Helper()
	svc, eng := newStarService(o.WithDefaults(), faults)
	svc.Start()
	eng.RunUntil(sim.Time(200 * sim.Millisecond))
	return svc, svc.Report()
}

// newStarService builds the service on a single-switch star under the
// given faults: leader on host 0, then followers, then clients. Link j of
// the star joins host j to the switch.
func newStarService(o Options, faults fault.Spec) (*Service, *sim.Engine) {
	eng := sim.NewEngine()
	cfg := fabric.DefaultConfig()
	hosts := 1 + o.Followers + o.Clients
	star := topo.NewStar(hosts)
	if faults.Enabled() {
		m, err := fault.New(faults, len(star.Links()), cfg.Seed)
		if err != nil {
			panic(err)
		}
		cfg.Faults = m
	}
	net := fabric.New(eng, star, cfg)

	pl := Placement{Leader: 0}
	for j := 0; j < o.Followers; j++ {
		pl.Followers = append(pl.Followers, packet.NodeID(1+j))
	}
	for i := 0; i < o.Clients; i++ {
		pl.Clients = append(pl.Clients, packet.NodeID(1+o.Followers+i))
	}

	return New(net, pl, verbs.DefaultConfig(), o, 7), eng
}

// TestNewRequiresSingleShardFabric: the service runs serial, so building
// it over a fabric split across two engines panics.
func TestNewRequiresSingleShardFabric(t *testing.T) {
	tree := topo.NewFatTree(4)
	assign, used := topo.PartitionNodes(tree, 2)
	if used != 2 {
		t.Fatalf("partitioner used %d shards, want 2", used)
	}
	net := fabric.NewPartitioned([]*sim.Engine{sim.NewEngine(), sim.NewEngine()}, assign, tree, fabric.DefaultConfig())
	hosts := make([]packet.NodeID, tree.Hosts())
	for i := range hosts {
		hosts[i] = packet.NodeID(i)
	}
	o := testOptions(ModeSend).WithDefaults()
	pl := Place(hosts, 4, o.Followers, o.Clients)
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "single-shard") {
			t.Fatalf("New on a two-shard fabric: recovered %v, want the single-shard panic", r)
		}
	}()
	New(net, pl, verbs.DefaultConfig(), o, 7)
}

func testOptions(mode Mode) Options {
	return Options{
		Requests: 48,
		Mode:     mode,
	}
}

func checkHealthy(t *testing.T, svc *Service, rep *Report) {
	t.Helper()
	if !svc.Done() {
		t.Fatalf("service not done: %d/%d resolved", rep.Resolved, rep.Issued)
	}
	if rep.Resolved != uint64(svc.o.Requests) {
		t.Fatalf("resolved %d of %d", rep.Resolved, svc.o.Requests)
	}
	if rep.Committed == 0 {
		t.Error("no Puts committed")
	}
	if rep.GetsOK == 0 {
		t.Error("no Gets answered")
	}
	if rep.GiveUps != 0 || rep.ReadOnly != 0 {
		t.Errorf("healthy fabric saw %d give-ups, %d read-only rejections", rep.GiveUps, rep.ReadOnly)
	}
	if rep.Availability < 0.95 {
		t.Errorf("availability %.3f on a healthy fabric", rep.Availability)
	}
	if rep.Commit.N() == 0 || rep.CommitP99 == 0 {
		t.Error("commit latency histogram empty")
	}
	// Replication really happened: every committed key on the leader is
	// present on every follower with the same bytes (followers apply on
	// arrival, so their stores are supersets of the committed state only
	// when uncommitted tails exist — here everything committed).
	srv := svc.leader
	for j, f := range svc.followers {
		for k, v := range srv.store {
			fv, ok := f.store[k]
			if !ok {
				t.Fatalf("follower %d missing committed key %d", j, k)
			}
			if !reflect.DeepEqual(v, fv) {
				t.Fatalf("follower %d diverged on key %d", j, k)
			}
		}
	}
}

func TestKVEndToEndSend(t *testing.T) {
	svc, rep := runKV(t, testOptions(ModeSend), fault.Spec{})
	checkHealthy(t, svc, rep)
}

func TestKVEndToEndWriteImm(t *testing.T) {
	svc, rep := runKV(t, testOptions(ModeWriteImm), fault.Spec{})
	checkHealthy(t, svc, rep)
}

// TestKVDegradesToReadOnly severs replication (takes every follower's
// link down; on the star only replication crosses those links) and
// checks the failover state machine: the leader must degrade, reject
// Puts read-only, keep serving Gets, and the client whose Put is stuck in
// the log must exhaust its retries and give up — all without hanging the
// run.
func TestKVDegradesToReadOnly(t *testing.T) {
	o := testOptions(ModeSend)
	o = o.WithDefaults()
	var sever fault.Spec
	for j := 1; j <= o.Followers; j++ {
		sever.Flaps = append(sever.Flaps, fault.Flap{Link: j, DownAt: 1})
	}
	svc, rep := runKV(t, o, sever)
	if !svc.Done() {
		t.Fatalf("service hung: %d/%d resolved", rep.Resolved, rep.Issued)
	}
	if rep.DegradedEnters == 0 {
		t.Error("leader never degraded despite severed replication")
	}
	if rep.ReadOnly == 0 {
		t.Error("no read-only rejections while degraded")
	}
	if rep.GiveUps == 0 {
		t.Error("the stuck Put's client never gave up")
	}
	if rep.GetsOK == 0 {
		t.Error("degraded leader stopped serving Gets")
	}
}

// TestKVDeterministic runs the same configuration twice and demands a
// bit-identical report, for both wire variants.
func TestKVDeterministic(t *testing.T) {
	for _, mode := range []Mode{ModeSend, ModeWriteImm} {
		_, a := runKV(t, testOptions(mode), fault.Spec{})
		_, b := runKV(t, testOptions(mode), fault.Spec{})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("mode %s: reports differ across identical runs", mode)
		}
	}
}

// TestPlaceSpreadsReplicas checks the pod-aware placement: replicas land
// in distinct pods, nothing collides, and oversubscription falls back to
// shared hosts instead of spinning.
func TestPlaceSpreadsReplicas(t *testing.T) {
	hosts := make([]packet.NodeID, 16)
	for i := range hosts {
		hosts[i] = packet.NodeID(i)
	}
	pl := Place(hosts, 4, 2, 6)
	if pl.Leader != 0 {
		t.Errorf("leader = %d", pl.Leader)
	}
	used := map[packet.NodeID]bool{pl.Leader: true}
	for _, h := range append(append([]packet.NodeID{}, pl.Followers...), pl.Clients...) {
		if used[h] {
			t.Fatalf("host %d reused", h)
		}
		used[h] = true
	}
	pod := func(h packet.NodeID) int { return int(h) / 4 }
	if pod(pl.Followers[0]) == 0 || pod(pl.Followers[1]) == 0 || pod(pl.Followers[0]) == pod(pl.Followers[1]) {
		t.Errorf("followers not spread across pods: %v", pl.Followers)
	}
	// Oversubscribed: more participants than hosts must still terminate.
	small := Place(hosts[:4], 4, 2, 6)
	if len(small.Clients) != 6 {
		t.Errorf("oversubscribed placement returned %d clients", len(small.Clients))
	}
}

// TestPlaceRejectsTooFewHosts: a replica group larger than the host list
// used to spin forever looking for a free follower host; Place now panics
// with the counts, and Options.Validate is the same check as an error.
// Validate also rejects a negative count or time, a Put fraction outside
// [0, 1], an unknown mode, an issue schedule past the clock, and phases
// that are out of order, overlap, or leave a phase before the last
// open-ended.
func TestPlaceRejectsTooFewHosts(t *testing.T) {
	hosts := []packet.NodeID{0, 1}
	if err := (Options{}).Validate(len(hosts)); err == nil || !strings.Contains(err.Error(), "need 3 hosts") {
		t.Errorf("Validate(2 hosts) with the default two followers = %v", err)
	}
	if err := (Options{Followers: 1}).Validate(len(hosts)); err != nil {
		t.Errorf("Validate(2 hosts, 1 follower) = %v", err)
	}
	bad := []Options{{Followers: -1}, {Mode: 7},
		{Phases: []Phase{{Name: "a", From: 10, To: 20}, {Name: "b", From: 5, To: 8}}},   // out of order
		{Phases: []Phase{{Name: "a", From: 10, To: 20}, {Name: "b", From: 15, To: 30}}}, // overlapping
		{Phases: []Phase{{Name: "a", From: 10}, {Name: "b", From: 20, To: 30}}},         // open-ended, not last
		{Phases: []Phase{{Name: "a", From: 10, To: 5}}},                                 // ends before it starts
	}
	if strconv.IntSize == 64 {
		// No 32-bit int reaches the clock bound: 64 × (2³¹−1) requests
		// issued 50 µs apart end near 6.9e18 ps, below sim.MaxTime.
		bad = append(bad, Options{Requests: math.MaxInt})
	}
	for _, o := range bad {
		if err := o.Validate(64); err == nil {
			t.Errorf("Validate(%+v) accepted options no run can take", o)
		}
	}
	result := make(chan any, 1)
	go func() {
		defer func() { result <- recover() }()
		Place(hosts, 1, 2, 6)
	}()
	select {
	case r := <-result:
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "2 hosts cannot hold a leader and 2 followers") {
			t.Errorf("Place panicked with %v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Place did not return: still searching for a free follower host")
	}
	// Exactly enough hosts for the replicas: clients share them.
	if pl := Place(hosts, 1, 1, 3); len(pl.Followers) != 1 || len(pl.Clients) != 3 {
		t.Errorf("placement on exactly enough hosts: %+v", pl)
	}
}
