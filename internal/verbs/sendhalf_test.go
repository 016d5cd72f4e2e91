package verbs

import (
	"testing"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
)

// quietQP is a QP whose wire records instead of delivering, for driving
// the recovery paths event by event.
func quietQP(cfg Config) (*QP, *[]*VPacket) {
	var sent []*VPacket
	q := NewQP("q", sim.NewEngine(), cfg, WireFunc(func(p *VPacket) { sent = append(sent, p) }), NewMemory(), &CQ{})
	return q, &sent
}

// TestRequesterRecoverySeqIsLastEnqueued pins where the verbs requester
// departs from IRN's sender: the recovery sequence is stamped from the
// last PSN enqueued, transmitted or not, so recovery outlives the
// delivery of everything that was in flight when it began. Changing it
// moves the figkv fixtures; do it on purpose.
func TestRequesterRecoverySeqIsLastEnqueued(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BDPCap = 4
	q, sent := quietQP(cfg)
	if err := q.PostSend(Request{ID: 1, Op: OpWrite, Data: make([]byte, 10*cfg.MTU), RKey: 1}); err != nil {
		t.Fatal(err)
	}
	if len(*sent) != 4 || q.tx.next != 10 {
		t.Fatalf("transmitted %d of %d enqueued, want 4 of 10", len(*sent), q.tx.next)
	}
	q.Receive(&VPacket{
		BTH:     packet.BTH{Opcode: packet.OpAtomicAcknowledge, PSN: 0},
		AETH:    packet.AETH{Syndrome: packet.SyndromeNack},
		SackPSN: 2,
	}, 0)
	if !q.tx.sb.InRecovery() || q.tx.sb.RecoverySeq() != 9 {
		t.Fatalf("recovery in=%v seq=%d, want 9 (last enqueued), not 3 (last transmitted)",
			q.tx.sb.InRecovery(), q.tx.sb.RecoverySeq())
	}
	// Everything that was in flight is acknowledged; recovery goes on.
	q.Receive(&VPacket{BTH: packet.BTH{Opcode: packet.OpAcknowledge, PSN: 4}}, 0)
	if !q.tx.sb.InRecovery() {
		t.Error("recovery ended at the last transmitted PSN")
	}
}

// TestReadResponderTimeoutRestamps pins the read responder's departure:
// its timeout restamps the recovery sequence of an episode already
// running, where the requester's (like IRN's) leaves it alone.
func TestReadResponderTimeoutRestamps(t *testing.T) {
	q, _ := quietQP(DefaultConfig())
	resp := func() *VPacket { return &VPacket{BTH: packet.BTH{Opcode: packet.OpReadRespOnly}} }
	for i := 0; i < 4; i++ {
		q.sendReadResp(resp())
	}
	q.Receive(&VPacket{
		BTH:     packet.BTH{Opcode: packet.OpReadNack, PSN: 1},
		AETH:    packet.AETH{Syndrome: packet.SyndromeNack},
		SackPSN: 3,
	}, 0)
	if !q.rtx.sb.InRecovery() || q.rtx.sb.RecoverySeq() != 3 {
		t.Fatalf("read recovery in=%v seq=%d, want 3", q.rtx.sb.InRecovery(), q.rtx.sb.RecoverySeq())
	}
	q.sendReadResp(resp())
	q.sendReadResp(resp())
	q.onReadTimeout()
	if got := q.rtx.sb.RecoverySeq(); got != 5 {
		t.Errorf("read timeout left the recovery sequence at %d, want it restamped to 5", got)
	}

	// The requester's timeout, same situation: no restamp.
	r, _ := quietQP(DefaultConfig())
	post := func(id uint64) {
		if err := r.PostSend(Request{ID: id, Op: OpWrite, Data: make([]byte, 4000), RKey: 1}); err != nil {
			t.Fatal(err)
		}
	}
	post(1)
	r.onTimeout()
	post(2)
	r.onTimeout()
	if got := r.tx.sb.RecoverySeq(); got != 3 {
		t.Errorf("requester timeout moved the recovery sequence to %d, want 3", got)
	}
}

// TestFencedRequestValidatedAtPost: a malformed request is rejected by
// PostSend even when a fence would have queued it — it must never be
// accepted now and completed (with any status) when the fence releases.
func TestFencedRequestValidatedAtPost(t *testing.T) {
	pp, a, _, cqA, _, _, memB := newPipe(t)
	memB.Register(7, make([]byte, 4096))
	if err := a.PostSend(Request{ID: 1, Op: OpWrite, Data: fill(3000, 1), RKey: 7}); err != nil {
		t.Fatal(err)
	}
	if err := a.PostSend(Request{ID: 2, Op: OpRead, RKey: 7, Fence: true}); err == nil {
		t.Error("fenced READ without a destination buffer was accepted")
	}
	if err := a.PostSend(Request{ID: 3, Op: OpType(99), Fence: true}); err == nil {
		t.Error("fenced request with an unknown op was accepted")
	}
	// A well-formed fenced request still waits its turn and completes.
	dst := make([]byte, 1000)
	if err := a.PostSend(Request{ID: 4, Op: OpRead, RKey: 7, Local: dst, Fence: true}); err != nil {
		t.Fatal(err)
	}
	pp.run()
	got := cqA.Poll()
	if len(got) != 2 || got[0].WQEID != 1 || got[1].WQEID != 4 {
		t.Fatalf("completions %+v, want exactly requests 1 and 4", got)
	}
}
