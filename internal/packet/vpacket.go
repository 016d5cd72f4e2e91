package packet

// VPacket is a verbs-layer packet: the BTH plus IRN's extensions. IRN
// carries the RETH in every packet of a Write (§5.3.1) and the WQE
// sequence number + relative offset in Sends and Read/Atomic requests
// (§5.3.2). The verbs layer builds and consumes it, and a fabric Packet
// carries one through the simulated network in its Verbs field. It is the
// verbs wire format: every field is one a QP sets on send and reads on
// receipt, and nothing encodes it to bytes. The fabric charges its
// headers by size instead: a data packet pays DataHeader (BTH included)
// plus RETHSize and IRNExtSize, and an ack's AETH rides in a ControlFrame.
type VPacket struct {
	BTH  BTH
	RETH RETH   // remote placement (writes; reads carry the source)
	Ext  IRNExt // recv_WQE_SN / read_WQE_SN + relative offset
	AETH AETH   // acks: syndrome + MSN

	// SackPSN is the out-of-order PSN carried by IRN NACKs.
	SackPSN uint32
	// Imm is immediate data (last packet of Write-with-Imm, Sends).
	Imm uint32
	// InvKey is the rkey invalidated by Send-with-Invalidate.
	InvKey uint32
	// Atomic operands (single-packet Atomic requests).
	AtomicCmp, AtomicSwap uint64

	Payload []byte

	next *VPacket // VPacketStack link
}

// VPacketStack is a LIFO free list of VPackets linked through the packets
// themselves, so pushing and popping never allocate. A packet is on at
// most one stack at a time. The zero value is an empty stack.
type VPacketStack struct {
	top *VPacket
}

// Push puts p on top of the stack.
func (s *VPacketStack) Push(p *VPacket) {
	p.next = s.top
	s.top = p
}

// Pop removes and returns the top packet, or nil if the stack is empty.
func (s *VPacketStack) Pop() *VPacket {
	p := s.top
	if p != nil {
		s.top, p.next = p.next, nil
	}
	return p
}
