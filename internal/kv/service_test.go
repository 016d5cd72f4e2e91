package kv

import (
	"math/rand"
	"testing"

	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/verbs"
)

// TestLeaderLogBounded commits a few thousand Puts on a fault-free
// service and checks the leader retains only uncommitted entries — at
// most one per client — while followers keep seeing absolute log indices,
// and that a follower ack for an index already dropped is ignored exactly
// like one for an index never appended.
func TestLeaderLogBounded(t *testing.T) {
	o := Options{Requests: 3000, Mode: ModeWriteImm, PutFraction: 0.9}.WithDefaults()
	svc, eng := newStarService(o, nil)
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
// reference on random window sets — sorted and disjoint ones (the binary
// search), and ones with overlaps, repeated names, empty windows,
// unsorted starts and open-ended tails (the scan) — at every boundary
// and its neighbours.
func TestBucketOfMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"steady", "flap", "drain", "flap", "blackout", "recover"}
	searched := 0
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(8)
		phases := make([]Phase, n)
		disjoint := trial%2 == 0
		at := sim.Time(rng.Intn(5))
		for k := range phases {
			w := Phase{Name: names[rng.Intn(len(names))]}
			if disjoint {
				w.From = at + sim.Time(rng.Intn(4))
				w.To = w.From + sim.Time(rng.Intn(5)) // may be empty
				if w.To == 0 {
					w.To = 1
				}
				at = w.To
				if k == n-1 && rng.Intn(2) == 0 {
					w.To = 0 // open-ended tail
				}
			} else {
				w.From = sim.Time(rng.Intn(30))
				if w.To = sim.Time(rng.Intn(30)); rng.Intn(4) == 0 {
					w.To = 0
				}
			}
			phases[k] = w
		}
		s := &Service{}
		s.phaseNames, s.windows, s.sorted = resolvePhases(phases)
		if disjoint && !s.sorted {
			t.Fatalf("sorted disjoint windows not recognised: %+v", phases)
		}
		if s.sorted {
			searched++
		}
		for tm := sim.Time(0); tm < 40; tm++ {
			if got, want := s.bucketOf(tm), bucketOfReference(phases, s.phaseNames, tm); got != want {
				t.Fatalf("bucketOf(%d) = %d, reference %d (sorted=%v) for %+v", tm, got, want, s.sorted, phases)
			}
		}
	}
	if searched < 1000 {
		t.Errorf("only %d trials took the binary search", searched)
	}
}
