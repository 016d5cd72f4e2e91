package fabric

import (
	"github.com/irnsim/irn/internal/fault"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// ECNConfig is RED-style marking at switch egress queues, the signal DCQCN
// and DCTCP react to. Marking probability rises linearly from 0 at KMin to
// PMax at KMax, then 1 above KMax.
type ECNConfig struct {
	Enabled bool
	KMin    int // bytes
	KMax    int // bytes
	PMax    float64
}

// Config sets the fabric-wide parameters of a simulation. Sized derives
// the §4.1 buffer and PFC sizing from the link parameters, and
// DefaultConfig is the paper's default case. Config is plain comparable
// data: a fabric's structure is a function of its topology and its Config
// less Seed and Faults, which Network.Reset re-applies per run.
type Config struct {
	// Rate is the link rate for every link in the fabric.
	Rate Rate
	// Prop is the per-link propagation delay.
	Prop sim.Duration
	// BufferBytes is the per-input-port buffer at switches.
	BufferBytes int
	// PFC enables priority flow control. When false, a full input buffer
	// drops packets (drop-tail).
	PFC bool
	// PFCHeadroom is subtracted from BufferBytes to get the pause
	// threshold: it must absorb the packets in flight on the upstream
	// link after the pause frame is sent (§4.1).
	PFCHeadroom int
	// PFCHysteresis is how far below the threshold the buffer must drain
	// before resuming, limiting pause/resume flapping.
	PFCHysteresis int
	// ECN configures marking.
	ECN ECNConfig
	// MTU is the data payload size per packet.
	MTU int
	// Seed drives ECN marking randomness.
	Seed uint64
	// Faults, when non-nil, is the compiled fault model for this run:
	// per-link random loss and corruption rates plus the link flap and
	// degradation schedule. Faults resolve at the arrival end of each
	// link (see outPort); scheduled transitions run as typed engine
	// events. Nil injects nothing.
	Faults *fault.Model
	// Spray selects per-packet (instead of per-flow) multipathing: each
	// packet picks an equal-cost path independently, as fine-grained
	// load balancers do (DRILL, packet spraying — §7 "Reordering due to
	// load-balancing"). It reorders packets within a flow; IRN tolerates
	// this with NackThreshold > 1.
	Spray bool
	// SharedBuffer pools each switch's buffer across its input ports
	// instead of partitioning it per port (§A.5: "We expect to see
	// similar behaviour in shared buffer switches"). BufferBytes then
	// sizes the shared pool per port (total = ports × BufferBytes), and
	// PFC asserts against per-input occupancy of the shared pool.
	SharedBuffer bool
}

// Sized returns the §4.1 fabric for the given link rate and propagation
// delay, and for mtu-byte payloads carrying extraHeader bytes beyond
// packet.DataHeader. Buffers are twice the fat-tree's longest-path BDP.
// PFC headroom is the paper's "upstream link's bandwidth-delay product"
// plus three wire packets of slack for the packet in flight when X-OFF is
// generated and the packet that may overshoot the threshold check; resume
// hysteresis is two wire packets. Every other field is off or zero.
func Sized(rate Rate, prop sim.Duration, mtu, extraHeader int) Config {
	wire := mtu + packet.DataHeader + extraHeader
	return Config{
		Rate:          rate,
		Prop:          prop,
		BufferBytes:   2 * BDPBytes(rate, prop, topo.FatTreeLongestPathHops),
		PFCHeadroom:   BDPBytes(rate, prop, 1) + 3*wire,
		PFCHysteresis: 2 * wire,
		MTU:           mtu,
	}
}

// DefaultConfig returns the paper's default-case fabric, Sized for 40 Gbps,
// 2 µs links and 1000-byte payloads with Seed 1: 6-hop BDP 120 KB, buffer
// 2×BDP = 240 KB, link BDP 20 KB, PFC threshold ≈ 217 KB.
func DefaultConfig() Config {
	cfg := Sized(Gbps(40), 2*sim.Microsecond, 1000, 0)
	cfg.Seed = 1
	return cfg
}

// PFCThreshold returns the input-buffer occupancy above which a switch
// sends X-OFF upstream.
func (c *Config) PFCThreshold() int { return c.BufferBytes - c.PFCHeadroom }

// Stats aggregates fabric-wide counters for a run.
type Stats struct {
	Delivered    uint64 // data packets delivered to hosts
	CtrlDeliv    uint64 // control packets delivered to hosts
	Drops        uint64 // packets dropped at full input buffers
	FaultDrops   uint64 // packets lost to injected faults (random loss, downed links)
	Corrupted    uint64 // packets dropped by the receiving port's CRC check
	ECNMarked    uint64 // packets CE-marked
	PauseFrames  uint64 // X-OFF frames sent
	ResumeFrames uint64 // X-ON frames sent
	DataBytes    uint64 // data wire bytes delivered at hosts
}
