package packet

// VPacket is a verbs-layer packet: the BTH plus IRN's extensions. IRN
// carries the RETH in every packet of a Write (§5.3.1) and the WQE
// sequence number + relative offset in Sends and Read/Atomic requests
// (§5.3.2). The verbs layer builds and consumes it; a fabric Packet
// carries one through the simulated network in its Verbs field.
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

// Marshal encodes the packet's headers plus payload to bytes (big-endian
// wire layout); used by tests to verify the header arithmetic the
// hardware would perform.
func (p *VPacket) Marshal() []byte {
	b := p.BTH.Marshal(nil)
	b = p.RETH.Marshal(b)
	b = p.Ext.Marshal(b)
	b = p.AETH.Marshal(b)
	return append(b, p.Payload...)
}

// UnmarshalVPacket decodes a packet produced by Marshal. SackPSN and the
// atomic operands ride in payload position for simplicity of the test
// codec (the real design assigns them dedicated extension headers).
func UnmarshalVPacket(b []byte) (*VPacket, error) {
	var p VPacket
	var err error
	if p.BTH, err = UnmarshalBTH(b); err != nil {
		return nil, err
	}
	b = b[BTHSize:]
	if p.RETH, err = UnmarshalRETH(b); err != nil {
		return nil, err
	}
	b = b[RETHSize:]
	if p.Ext, err = UnmarshalIRNExt(b); err != nil {
		return nil, err
	}
	b = b[IRNExtSize:]
	if p.AETH, err = UnmarshalAETH(b); err != nil {
		return nil, err
	}
	b = b[AETHSize:]
	if len(b) > 0 {
		p.Payload = append([]byte(nil), b...)
	}
	return &p, nil
}
