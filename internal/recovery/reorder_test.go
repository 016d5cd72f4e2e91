package recovery_test

import (
	"testing"

	"github.com/irnsim/irn/internal/hwmodel"
	"github.com/irnsim/irn/internal/recovery"
	"github.com/irnsim/irn/internal/sim"
)

// TestReorderMatchesHardwareReceiveData drives random arrivals — stale,
// duplicated, out of order and beyond the window — through Reorder and
// the hardware receiveData module: same ACK-or-NACK decision, same
// duplicate flag, same cumulative point after every packet.
func TestReorderMatchesHardwareReceiveData(t *testing.T) {
	kinds := map[recovery.Arrival]int{}
	for seed := uint64(1); seed <= 50; seed++ {
		rng := sim.NewRNG(seed)
		win := recovery.NewReorder(hwmodel.Bits)
		hw := &hwmodel.QPContext{}
		distinct := 0
		for i := 0; i < 4000; i++ {
			// Mostly near the head so the window keeps advancing.
			psn := win.Expected() + uint32(rng.Intn(8))
			switch rng.Intn(10) {
			case 0:
				psn = win.Expected() + uint32(rng.Intn(160)) // up to past the window
			case 1:
				psn = win.Expected() - uint32(rng.Intn(int(win.Expected())+1)) // stale
			}
			want := hwmodel.ReceiveData(hw, psn, false)
			kind, fresh := win.Arrive(psn)
			kinds[kind]++
			if fresh {
				distinct++
			}
			ack := kind == recovery.Duplicate || kind == recovery.InOrder
			dup := kind == recovery.Duplicate || kind == recovery.OutOfOrder && !fresh
			if ack != want.SendAck || !ack != want.SendNack || dup != want.Duplicate || win.Expected() != want.AckPSN {
				t.Fatalf("seed %d arrival %d (psn %d): reorder kind=%d fresh=%v expected=%d, hardware %+v",
					seed, i, psn, kind, fresh, win.Expected(), want)
			}
		}
		if win.Received() != distinct {
			t.Fatalf("seed %d: Received() = %d, counted %d fresh arrivals", seed, win.Received(), distinct)
		}
	}
	for k := recovery.Duplicate; k <= recovery.Outside; k++ {
		if kinds[k] == 0 {
			t.Errorf("arrival class %d never occurred", k)
		}
	}
}
