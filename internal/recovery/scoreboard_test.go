package recovery_test

import (
	"testing"

	"github.com/irnsim/irn/internal/hwmodel"
	"github.com/irnsim/irn/internal/recovery"
	"github.com/irnsim/irn/internal/sim"
)

// This file completes the §6.2.1 trace validation that
// hwmodel/trace_test.go does for receiveData and receiveAck over simulator
// traces: here arbitrary event sequences — not only the ones a healthy
// simulation produces — drive the Scoreboard and the hardware txFree /
// receiveAck / timeout modules side by side, and every output must match.

// refSender is the smallest sender around a Scoreboard: a send pointer and
// a window, nothing else.
type refSender struct {
	sb   recovery.Scoreboard
	next uint32
}

// step decodes one event from two bytes and applies it to both models,
// failing on the first diverging output. It reports whether the event was
// a retransmission.
func step(t *testing.T, i int, op, arg byte, s *refSender, hw *hwmodel.QPContext, total uint32) (retx bool) {
	t.Helper()
	switch op % 5 {
	case 0, 1: // the link frees up: transmit one packet
		want := hwmodel.TxFree(hw, total, hwmodel.Bits)
		var got hwmodel.TxFreeOut
		if psn, lost := s.sb.Take(total); lost {
			got = hwmodel.TxFreeOut{HasPacket: true, PSN: psn, Retransmit: true}
		} else if s.next < total && s.next-s.sb.Cum() < hwmodel.Bits {
			got = hwmodel.TxFreeOut{HasPacket: true, PSN: s.next}
			s.next++
		}
		if got != want {
			t.Fatalf("event %d txFree: scoreboard %+v, hardware %+v", i, got, want)
		}
		retx = got.Retransmit

	case 2: // cumulative ACK somewhere in [cum, next]
		cum := s.sb.Cum() + uint32(arg)%(s.next-s.sb.Cum()+1)
		want := hwmodel.ReceiveAck(hw, cum, false, 0)
		newly, exited := s.sb.Ack(cum)
		if uint32(newly) != want.NewlyAcked || exited != want.ExitedRec {
			t.Fatalf("event %d ack %d: scoreboard newly=%d exited=%v, hardware %+v", i, cum, newly, exited, want)
		}

	case 3: // NACK: cumulative part, then a SACK that may be stale, unsent or past the window
		cum := s.sb.Cum() + uint32(arg>>6)%(s.next-s.sb.Cum()+1)
		sack := s.sb.Cum() + uint32(arg&0x3f)*3 - 2
		want := hwmodel.ReceiveAck(hw, cum, true, sack)
		newly, exited := s.sb.Ack(cum)
		s.sb.Sack(sack)
		entered := s.sb.Enter(s.next)
		if uint32(newly) != want.NewlyAcked || exited != want.ExitedRec || entered != want.EnteredRec {
			t.Fatalf("event %d nack %d/%d: scoreboard newly=%d exited=%v entered=%v, hardware %+v",
				i, cum, sack, newly, exited, entered, want)
		}

	case 4: // timeout: the hardware module restamps the recovery sequence
		want := hwmodel.Timeout(hw)
		fire := s.sb.Cum() < s.next
		if fire {
			s.sb.Restamp(s.next)
			s.sb.Rescan()
		}
		if fire != want.Fire || want.Extend {
			t.Fatalf("event %d timeout: scoreboard fire=%v, hardware %+v", i, fire, want)
		}
	}
	if s.sb.Cum() != hw.CumAck || s.sb.InRecovery() != hw.InRecov || s.next != hw.NextSeq {
		t.Fatalf("event %d: state diverged: scoreboard cum=%d rec=%v next=%d, hardware cum=%d rec=%v next=%d",
			i, s.sb.Cum(), s.sb.InRecovery(), s.next, hw.CumAck, hw.InRecov, hw.NextSeq)
	}
	if hw.InRecov && s.sb.RecoverySeq() != hw.RecSeq {
		t.Fatalf("event %d: recovery sequence %d, hardware %d", i, s.sb.RecoverySeq(), hw.RecSeq)
	}
	return retx
}

// replay runs an event string through both models. It reports how many
// retransmissions the sequence produced, so callers can reject vacuous
// inputs.
func replay(t *testing.T, total uint32, events []byte) (retx int) {
	t.Helper()
	s := &refSender{sb: recovery.NewScoreboard(hwmodel.Bits)}
	hw := &hwmodel.QPContext{}
	for i := 0; i+1 < len(events) && s.sb.Cum() < total; i += 2 {
		if step(t, i/2, events[i], events[i+1], s, hw, total) {
			retx++
		}
	}
	return retx
}

func FuzzScoreboard(f *testing.F) {
	f.Add(uint16(300), []byte{0, 0, 0, 0, 0, 0, 3, 5, 0, 0, 0, 0, 2, 9})
	f.Add(uint16(40), []byte{0, 0, 1, 0, 4, 0, 0, 0, 3, 0xc3, 0, 0, 2, 255, 4, 0, 0, 0})
	f.Add(uint16(1), []byte{0, 0, 4, 0, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, total uint16, events []byte) {
		if total == 0 {
			total = 1
		}
		replay(t, uint32(total), events)
	})
}

// TestScoreboardMatchesHardwareModules is the seeded property run: long
// random event sequences biased toward transmission, so windows fill, get
// holes punched into them and drain through recovery many times over.
func TestScoreboardMatchesHardwareModules(t *testing.T) {
	retx := 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		events := make([]byte, 2*2000)
		for i := 0; i < len(events); i += 2 {
			events[i] = byte(rng.Intn(5))
			if rng.Intn(3) == 0 {
				events[i] = 0 // keep the window full
			}
			events[i+1] = byte(rng.Intn(256))
		}
		retx += replay(t, uint32(100+rng.Intn(3000)), events)
	}
	if retx < 1000 {
		t.Fatalf("only %d retransmissions across all sequences; validation would be vacuous", retx)
	}
}

// TestNoSackIsSelectiveRepeatOfTheCumulativeAck pins that the no-SACK
// ablation needs no mode: a caller that never calls Sack is offered the
// cumulative-ack packet once per scan and nothing else.
func TestNoSackIsSelectiveRepeatOfTheCumulativeAck(t *testing.T) {
	sb := recovery.NewScoreboard(64)
	sb.Enter(20)
	if psn, ok := sb.Take(20); !ok || psn != 0 {
		t.Fatalf("first loss = %d,%v; want the cumulative ack 0", psn, ok)
	}
	if psn, ok := sb.Take(20); ok {
		t.Fatalf("without SACKs nothing past the cumulative ack is lost; got %d", psn)
	}
	sb.Ack(5)
	if psn, ok := sb.Take(20); !ok || psn != 5 {
		t.Fatalf("after the ack moved, loss = %d,%v; want 5", psn, ok)
	}
}

func TestPeekDoesNotConsumeAndRespectsLimit(t *testing.T) {
	sb := recovery.NewScoreboard(64)
	sb.Sack(3)
	sb.Enter(10)
	for i := 0; i < 2; i++ {
		if psn, ok := sb.Peek(10); !ok || psn != 0 {
			t.Fatalf("peek %d = %d,%v; want 0", i, psn, ok)
		}
	}
	for _, want := range []uint32{0, 1, 2} {
		if psn, ok := sb.Take(10); !ok || psn != want {
			t.Fatalf("take = %d,%v; want %d", psn, ok, want)
		}
	}
	if psn, ok := sb.Take(10); ok {
		t.Fatalf("3 was selectively acked and nothing above it was; got %d", psn)
	}
	sb.Sack(8)
	if psn, ok := sb.Peek(4); ok {
		t.Fatalf("limit 4 must hide hole %d", psn)
	}
	if psn, ok := sb.Peek(10); !ok || psn != 4 {
		t.Fatalf("peek = %d,%v; want hole 4", psn, ok)
	}
}

func TestDualRTO(t *testing.T) {
	low, high := 100*sim.Microsecond, 320*sim.Microsecond
	for inflight, want := range map[int]sim.Duration{0: low, 2: low, 3: high, 110: high} {
		if got := recovery.DualRTO(inflight, 3, low, high); got != want {
			t.Errorf("DualRTO(%d) = %v, want %v", inflight, got, want)
		}
	}
}

func TestRTTEstimator(t *testing.T) {
	var r recovery.RTT
	if _, ok := r.RTO(); ok {
		t.Fatal("no estimate before the first sample")
	}
	r.Sample(0) // ignored
	r.Sample(80 * sim.Microsecond)
	if rto, ok := r.RTO(); !ok || rto != 240*sim.Microsecond {
		t.Fatalf("first sample: RTO = %v,%v; want SRTT + 4·(SRTT/2) = 240us", rto, ok)
	}
	for i := 0; i < 100; i++ {
		r.Sample(80 * sim.Microsecond)
	}
	if rto, _ := r.RTO(); rto < 80*sim.Microsecond || rto > 90*sim.Microsecond {
		t.Fatalf("steady 80us samples: RTO = %v, want the variance term to have decayed", rto)
	}
}
