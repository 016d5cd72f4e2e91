package irn

import (
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/verbs"
)

// The verbs layer (§5) is exported through aliases so applications can
// exercise RDMA semantics — queue pairs, WQEs/CQEs, Write/Read/Send/
// Atomic operations with out-of-order placement — over simulated lossy
// fabrics. See examples/keyvalue for a complete walkthrough.

// QP is an RDMA queue pair with IRN's transport extensions.
type QP = verbs.QP

// QPConfig parameterizes a QP.
type QPConfig = verbs.Config

// Request is a work request for QP.PostSend.
type Request = verbs.Request

// CQE is a completion-queue entry.
type CQE = verbs.CQE

// CQ is a completion queue.
type CQ = verbs.CQ

// Memory is registered RDMA memory (rkey-addressed regions).
type Memory = verbs.Memory

// SRQ is a shared receive queue (Appendix B.2).
type SRQ = verbs.SRQ

// VPacket is a verbs-layer packet (BTH + IRN extension headers).
type VPacket = verbs.VPacket

// Wire carries verbs packets between QPs; implementations may delay,
// reorder and drop.
type Wire = verbs.Wire

// WireFunc adapts a function to Wire.
type WireFunc = verbs.WireFunc

// Engine is the discrete-event engine verbs QPs run on.
type Engine = sim.Engine

// Duration is simulation time in picoseconds.
type Duration = sim.Duration

// Nanoseconds converts nanoseconds to simulation Duration.
func Nanoseconds(n int64) Duration { return Duration(n) * sim.Nanosecond }

// Microseconds converts microseconds to simulation Duration.
func Microseconds(n int64) Duration { return Duration(n) * sim.Microsecond }

// Verbs operation types.
const (
	OpWrite    = verbs.OpWrite
	OpWriteImm = verbs.OpWriteImm
	OpRead     = verbs.OpRead
	OpSend     = verbs.OpSend
	OpSendInv  = verbs.OpSendInv
	OpFetchAdd = verbs.OpFetchAdd
	OpCmpSwap  = verbs.OpCmpSwap
)

// NewEngine creates a simulation engine (picosecond clock at zero).
func NewEngine() *Engine { return sim.NewEngine() }

// NewQP builds a queue pair; see verbs.NewQP.
func NewQP(name string, eng *Engine, cfg QPConfig, wire Wire, mem *Memory, cq *CQ) *QP {
	return verbs.NewQP(name, eng, cfg, wire, mem, cq)
}

// NewMemory creates an empty RDMA memory.
func NewMemory() *Memory { return verbs.NewMemory() }

// NewSRQ creates a shared receive queue.
func NewSRQ() *SRQ { return verbs.NewSRQ() }

// DefaultQPConfig returns sensible QP defaults (1 KB MTU, 110-packet BDP
// cap, the paper's RTOLow/RTOHigh).
func DefaultQPConfig() QPConfig { return verbs.DefaultConfig() }
