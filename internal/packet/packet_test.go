package packet

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewDataWireSize(t *testing.T) {
	p := NewData(1, 2, 3, 7, 1000, true)
	if p.Wire != 1000+DataHeader {
		t.Errorf("Wire = %d, want %d", p.Wire, 1000+DataHeader)
	}
	if !p.Last || p.PSN != 7 || p.Type != TypeData {
		t.Errorf("fields wrong: %+v", p)
	}
	if p.IsControl() {
		t.Error("data packet must not be control")
	}
}

func TestControlPacketSizes(t *testing.T) {
	ack := NewAck(1, 2, 3, 10)
	nack := NewNack(1, 2, 3, 10, 15)
	cnp := NewCNP(1, 2, 3)
	for _, p := range []*Packet{ack, nack, cnp} {
		if p.Wire != ControlFrame {
			t.Errorf("%v Wire = %d, want %d", p.Type, p.Wire, ControlFrame)
		}
		if !p.IsControl() {
			t.Errorf("%v should be control", p.Type)
		}
	}
	if nack.CumAck != 10 || nack.SackPSN != 15 {
		t.Errorf("NACK fields: %+v", nack)
	}
}

func TestPacketString(t *testing.T) {
	cases := []struct {
		p    *Packet
		want string
	}{
		{NewData(1, 2, 3, 7, 100, false), "DATA"},
		{NewData(1, 2, 3, 7, 100, true), "last"},
		{NewAck(1, 2, 3, 9), "ACK"},
		{NewNack(1, 2, 3, 9, 12), "sack=12"},
		{NewCNP(1, 2, 3), "CNP"},
	}
	for _, c := range cases {
		if !strings.Contains(c.p.String(), c.want) {
			t.Errorf("String() = %q, want substring %q", c.p.String(), c.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	if TypeData.String() != "DATA" || TypeCNP.String() != "CNP" {
		t.Error("Type.String broken")
	}
	if !strings.Contains(Type(99).String(), "99") {
		t.Error("unknown type should include numeric value")
	}
}

func TestBTHRoundTrip(t *testing.T) {
	h := BTH{
		Opcode: OpWriteFirst,
		SE:     true,
		AckReq: true,
		PadCnt: 2,
		PKey:   0xffff,
		DestQP: 0x123456,
		PSN:    0xabcdef,
		HdrVer: 1,
	}
	b := h.Marshal(nil)
	if len(b) != BTHSize {
		t.Fatalf("marshalled size %d, want %d", len(b), BTHSize)
	}
	got, err := UnmarshalBTH(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestBTHPSNMasked(t *testing.T) {
	h := BTH{Opcode: OpSendOnly, PSN: 0x1abcdef} // 25 bits set
	got, err := UnmarshalBTH(h.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.PSN != 0xabcdef {
		t.Errorf("PSN = %#x, want 24-bit masked %#x", got.PSN, 0xabcdef)
	}
}

func TestBTHShort(t *testing.T) {
	if _, err := UnmarshalBTH(make([]byte, BTHSize-1)); err == nil {
		t.Error("expected error on short buffer")
	}
}

func TestRETHRoundTrip(t *testing.T) {
	h := RETH{VA: 0xdeadbeefcafe0123, RKey: 0x11223344, DMALen: 1 << 20}
	b := h.Marshal(nil)
	if len(b) != RETHSize {
		t.Fatalf("size %d", len(b))
	}
	got, err := UnmarshalRETH(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: got %+v want %+v", got, h)
	}
	if _, err := UnmarshalRETH(b[:RETHSize-1]); err == nil {
		t.Error("expected short-buffer error")
	}
}

func TestAETHRoundTrip(t *testing.T) {
	h := AETH{Syndrome: SyndromeNack, MSN: 0x00ff77}
	got, err := UnmarshalAETH(h.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: got %+v want %+v", got, h)
	}
	if _, err := UnmarshalAETH(nil); err == nil {
		t.Error("expected short-buffer error")
	}
}

func TestIRNExtRoundTrip(t *testing.T) {
	h := IRNExt{WQESeq: 0x0a0b0c, RelOffset: 0x112233}
	b := h.Marshal(nil)
	if len(b) != IRNExtSize {
		t.Fatalf("size %d", len(b))
	}
	got, err := UnmarshalIRNExt(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip: got %+v want %+v", got, h)
	}
	if _, err := UnmarshalIRNExt(b[:2]); err == nil {
		t.Error("expected short-buffer error")
	}
}

func TestBTHRoundTripProperty(t *testing.T) {
	f := func(op uint8, se, ackReq bool, pad uint8, pkey uint16, qp, psn uint32) bool {
		h := BTH{
			Opcode: Opcode(op),
			SE:     se,
			AckReq: ackReq,
			PadCnt: pad & 0x3,
			PKey:   pkey,
			DestQP: qp & 0xffffff,
			PSN:    psn & 0xffffff,
		}
		got, err := UnmarshalBTH(h.Marshal(nil))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIRNExtRoundTripProperty(t *testing.T) {
	f := func(wqe, off uint32) bool {
		h := IRNExt{WQESeq: wqe & 0xffffff, RelOffset: off & 0xffffff}
		got, err := UnmarshalIRNExt(h.Marshal(nil))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpcodeClassification(t *testing.T) {
	cases := []struct {
		op                Opcode
		first, last, only bool
		imm               bool
	}{
		{OpSendFirst, true, false, false, false},
		{OpSendMiddle, false, false, false, false},
		{OpSendLast, false, true, false, false},
		{OpSendLastImm, false, true, false, true},
		{OpSendOnly, false, true, true, false},
		{OpSendOnlyImm, false, true, true, true},
		{OpWriteFirst, true, false, false, false},
		{OpWriteLastImm, false, true, false, true},
		{OpWriteOnlyImm, false, true, true, true},
		{OpReadRespFirst, true, false, false, false},
		{OpReadRespOnly, false, true, true, false},
		{OpReadRequest, false, false, false, false},
		{OpAcknowledge, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsFirst() != c.first {
			t.Errorf("%v IsFirst = %v", c.op, c.op.IsFirst())
		}
		if c.op.IsLast() != c.last {
			t.Errorf("%v IsLast = %v", c.op, c.op.IsLast())
		}
		if c.op.IsOnly() != c.only {
			t.Errorf("%v IsOnly = %v", c.op, c.op.IsOnly())
		}
		if c.op.HasImmediate() != c.imm {
			t.Errorf("%v HasImmediate = %v", c.op, c.op.HasImmediate())
		}
	}
}

func TestOpcodeString(t *testing.T) {
	if OpReadNack.String() != "READ_NACK" {
		t.Errorf("OpReadNack = %q", OpReadNack.String())
	}
	if !strings.Contains(Opcode(0x3f).String(), "0x3f") {
		t.Errorf("unknown opcode string: %q", Opcode(0x3f).String())
	}
}
