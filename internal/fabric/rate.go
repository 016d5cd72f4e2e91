// Package fabric implements the packet-level network substrate the
// evaluation runs on: unidirectional links with exact serialization and
// propagation timing, input-queued switches with virtual output queues and
// round-robin scheduling, per-input-port buffer accounting, PFC pause and
// resume with threshold + headroom, RED/ECN marking for DCQCN and DCTCP,
// ECMP forwarding, and host NICs that arbitrate among queue pairs.
//
// The paper's simulator (§4.1) extends INET/OMNET++ to model a Mellanox
// ConnectX-4 NIC; this package is the equivalent substrate built from
// scratch. All switches are "input-queued with virtual output ports, that
// are scheduled using round-robin" and "can be configured to generate PFC
// frames by setting appropriate buffer thresholds".
package fabric

import (
	"github.com/irnsim/irn/internal/sim"
)

// Rate is a link rate expressed as picoseconds per byte, which keeps all
// serialization arithmetic in exact integers: 40 Gbps is 200 ps/B,
// 10 Gbps is 800 ps/B, 100 Gbps is 80 ps/B.
type Rate int64

// Gbps converts a rate in gigabits per second to ps/byte. Rates that do
// not divide 8000 evenly are rounded to the nearest picosecond.
func Gbps(g float64) Rate {
	return Rate(8000.0/g + 0.5)
}

// Serialize returns the time to place wire bytes on a link at this rate.
func (r Rate) Serialize(wire int) sim.Duration {
	return sim.Duration(int64(wire) * int64(r))
}

// BytesIn returns how many bytes the link carries in duration d.
func (r Rate) BytesIn(d sim.Duration) int {
	return int(int64(d) / int64(r))
}

// BDPBytes returns the bandwidth-delay product for a round-trip time of
// 2·hops·prop, the quantity IRN's BDP-FC cap is computed from (§3.2). For
// the paper's default (40 Gbps, 2 µs propagation, 6-hop longest path) this
// is 120 KB.
func BDPBytes(r Rate, prop sim.Duration, hops int) int {
	rtt := sim.Duration(2 * hops * int(prop))
	return r.BytesIn(rtt)
}
