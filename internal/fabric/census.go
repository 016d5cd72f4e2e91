package fabric

// Census tracks packet conservation across one fabric: every packet that
// enters the fabric must end in exactly one of the exit counters or still
// be inside it when the run stops. Network.Census derives it: Injected is
// counted where packets enter, and each exit is the Stats counter its
// death site bumps. The invariant harness asserts
//
//	Injected == Delivered + OverflowDrops + FaultDrops +
//	            Corrupted + InFlightPackets()
//
// after every run. A miss on the low side means a packet died without
// being accounted (and, with the pool, usually leaked); a miss on the high
// side means a packet was counted — or delivered — twice. Together with
// the pool's double-release panic this pins the ownership contract of the
// pooled datapath.
type Census struct {
	// Injected counts packets that entered the fabric: each transmission
	// start at a NIC egress port. (Control packets sitting in a NIC's
	// priority queue at run end were never injected and are excluded —
	// see CtrlBacklog.)
	Injected uint64
	// Delivered counts packets handed to a host (Stats.Delivered plus
	// Stats.CtrlDeliv): data, control, and strays alike — delivery is a
	// packet death regardless of whether a transport claimed it.
	Delivered uint64
	// OverflowDrops counts drop-tail deaths at full switch buffers
	// (Stats.Drops).
	OverflowDrops uint64
	// FaultDrops counts deaths from the fault model's random in-flight
	// loss and from links that went down with packets in flight.
	FaultDrops uint64
	// Corrupted counts deaths at a receiving port's CRC check (the fault
	// model's corruption rate).
	Corrupted uint64
}

// Exits sums every death counter: the packets that left the fabric.
func (c *Census) Exits() uint64 {
	return c.Delivered + c.OverflowDrops + c.FaultDrops + c.Corrupted
}

// InFlightPackets counts the packets currently inside the fabric:
// buffered in switch virtual output queues, riding a link's in-flight
// window (including NIC egress links), or resident in a cross-shard
// boundary channel between serialization start and hand-off to the
// receiving node (a boundary packet is pushed at kick and never enters
// the port's in-flight queue, so the two never double-count). With
// Census.Exits it closes the conservation equation at any quiescent
// instant (between events serially; at a window barrier sharded).
func (net *Network) InFlightPackets() int {
	n := 0
	for _, nic := range net.nics {
		if nic != nil {
			n += nic.egress.inflight.Len()
		}
	}
	for _, sw := range net.switches {
		for i := range sw.out {
			o := &sw.out[i]
			n += o.port.inflight.Len()
			for i := range o.voq {
				n += o.voq[i].Len()
			}
		}
	}
	for _, c := range net.chans {
		n += c.resident()
	}
	return n
}

// CtrlBacklog counts control packets queued at NIC egress priority queues
// that have not begun transmission: allocated but not yet injected. The
// pool-accounting invariant is
//
//	PoolLive() == InFlightPackets() + CtrlBacklog()
//
// i.e. every packet the pools own is either free, inside the fabric, or
// awaiting its first transmission.
func (net *Network) CtrlBacklog() int {
	n := 0
	for _, nic := range net.nics {
		if nic != nil {
			n += nic.ctrl.Len()
		}
	}
	return n
}

// LateDuplicates counts the data packets that reached a flow after its
// receiver retired (NIC.Retire), each answered by the flow's record.
// Unlike Stray they are accounted for: the record re-acknowledges them.
func (net *Network) LateDuplicates() uint64 {
	var n uint64
	for _, nic := range net.nics {
		if nic != nil {
			for i := range nic.retired.slots {
				n += nic.retired.slots[i].rec.Answers()
			}
		}
	}
	return n
}
