package packet

import "fmt"

// This file defines the header layouts the verbs layer builds and reads:
// the InfiniBand Base Transport Header (BTH), the RDMA Extended Transport
// Header (RETH), the ACK Extended Transport Header (AETH), and the IRN
// extension header that carries WQE sequence numbers and relative offsets
// so packets can be placed out of order (§5.3.2). Headers cross the
// simulated fabric as these structs and are never encoded to bytes; the
// wire model charges each one its on-the-wire size (the *Size constants).

// Opcode is the BTH operation code for reliable-connected (RC) QPs.
type Opcode uint8

// RC opcodes (InfiniBand specification, transport class RC = 0b000 in the
// upper 3 bits). IRN adds OpReadNack using one of the eight unused RC
// opcode values (§5.2).
const (
	OpSendFirst         Opcode = 0x00
	OpSendMiddle        Opcode = 0x01
	OpSendLast          Opcode = 0x02
	OpSendLastImm       Opcode = 0x03
	OpSendOnly          Opcode = 0x04
	OpSendOnlyImm       Opcode = 0x05
	OpWriteFirst        Opcode = 0x06
	OpWriteMiddle       Opcode = 0x07
	OpWriteLast         Opcode = 0x08
	OpWriteLastImm      Opcode = 0x09
	OpWriteOnly         Opcode = 0x0a
	OpWriteOnlyImm      Opcode = 0x0b
	OpReadRequest       Opcode = 0x0c
	OpReadRespFirst     Opcode = 0x0d
	OpReadRespMiddle    Opcode = 0x0e
	OpReadRespLast      Opcode = 0x0f
	OpReadRespOnly      Opcode = 0x10
	OpAcknowledge       Opcode = 0x11
	OpAtomicAcknowledge Opcode = 0x12
	OpCompareSwap       Opcode = 0x13
	OpFetchAdd          Opcode = 0x14
	OpSendLastInv       Opcode = 0x16
	OpSendOnlyInv       Opcode = 0x17
	// OpReadNack is IRN's new opcode: a (N)ACK sent by the requester for
	// each Read response packet, using reserved RC opcode 0x18 (§5.2).
	OpReadNack Opcode = 0x18
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	names := map[Opcode]string{
		OpSendFirst: "SEND_FIRST", OpSendMiddle: "SEND_MIDDLE",
		OpSendLast: "SEND_LAST", OpSendLastImm: "SEND_LAST_IMM",
		OpSendOnly: "SEND_ONLY", OpSendOnlyImm: "SEND_ONLY_IMM",
		OpWriteFirst: "WRITE_FIRST", OpWriteMiddle: "WRITE_MIDDLE",
		OpWriteLast: "WRITE_LAST", OpWriteLastImm: "WRITE_LAST_IMM",
		OpWriteOnly: "WRITE_ONLY", OpWriteOnlyImm: "WRITE_ONLY_IMM",
		OpReadRequest: "READ_REQ", OpReadRespFirst: "READ_RESP_FIRST",
		OpReadRespMiddle: "READ_RESP_MIDDLE", OpReadRespLast: "READ_RESP_LAST",
		OpReadRespOnly: "READ_RESP_ONLY", OpAcknowledge: "ACK",
		OpAtomicAcknowledge: "ATOMIC_ACK", OpCompareSwap: "CMP_SWAP",
		OpFetchAdd: "FETCH_ADD", OpSendLastInv: "SEND_LAST_INV",
		OpSendOnlyInv: "SEND_ONLY_INV", OpReadNack: "READ_NACK",
	}
	if s, ok := names[o]; ok {
		return s
	}
	return fmt.Sprintf("Opcode(%#x)", uint8(o))
}

// IsLast reports whether the opcode ends a message (including *_ONLY).
func (o Opcode) IsLast() bool {
	switch o {
	case OpSendLast, OpSendLastImm, OpSendLastInv, OpWriteLast, OpWriteLastImm,
		OpReadRespLast, OpSendOnly, OpSendOnlyImm, OpSendOnlyInv,
		OpWriteOnly, OpWriteOnlyImm, OpReadRespOnly:
		return true
	}
	return false
}

// HasImmediate reports whether the packet carries immediate data, which
// consumes a Receive WQE at the responder.
func (o Opcode) HasImmediate() bool {
	switch o {
	case OpSendLastImm, OpSendOnlyImm, OpWriteLastImm, OpWriteOnlyImm:
		return true
	}
	return false
}

// BTH is the 12-byte Base Transport Header, reduced to the two fields a
// QP sets and reads. The rest of its bytes (solicited event, ack request,
// pad count, partition key, destination QP, migration state, version) are
// charged by BTHSize but not modelled.
type BTH struct {
	Opcode Opcode
	PSN    PSN
}

// RETH is the 16-byte RDMA Extended Transport Header carrying the remote
// memory location. Standard RoCE includes it only in the first packet of a
// Write; IRN adds it to every packet so data can be placed out of order
// (§5.3.1).
type RETH struct {
	VA     uint64 // remote virtual address
	RKey   uint32 // remote memory key
	DMALen uint32 // total transfer length
}

// AETH syndrome classes (upper 3 bits of the syndrome byte).
const (
	SyndromeAck     = 0x00
	SyndromeRNRNack = 0x20 // receiver not ready
	SyndromeNack    = 0x60 // PSN sequence error NACK
)

// AETH is the 4-byte ACK Extended Transport Header: a syndrome byte and
// the message sequence number (MSN) used to expire Request WQEs at the
// requester (§5.3.3).
type AETH struct {
	Syndrome uint8
	MSN      uint32
}

// IRNExt is the IRN extension header: the WQE sequence number used to
// match packets to Receive WQEs (recv_WQE_SN) or Read WQE buffer slots
// (read_WQE_SN), and the relative packet offset within its message used to
// compute the placement address for Sends (§5.3.2). Both are 24-bit on
// the wire (IRNExtSize); as with PSN, the simulator keeps them in a
// uint32 and does not model that width.
type IRNExt struct {
	WQESeq    uint32 // recv_WQE_SN or read_WQE_SN
	RelOffset uint32 // packet offset within the message
}
