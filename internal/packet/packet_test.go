package packet

import (
	"strings"
	"testing"
)

func TestNewDataWireSize(t *testing.T) {
	p := NewData(1, 2, 3, 7, 1000, true)
	if p.Wire != 1000+DataHeader {
		t.Errorf("Wire = %d, want %d", p.Wire, 1000+DataHeader)
	}
	if !p.Last || p.PSN != 7 || p.Type != TypeData {
		t.Errorf("fields wrong: %+v", p)
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

func TestOpcodeClassification(t *testing.T) {
	cases := []struct {
		op        Opcode
		last, imm bool
	}{
		{OpSendFirst, false, false},
		{OpSendMiddle, false, false},
		{OpSendLast, true, false},
		{OpSendLastImm, true, true},
		{OpSendOnly, true, false},
		{OpSendOnlyImm, true, true},
		{OpWriteFirst, false, false},
		{OpWriteLastImm, true, true},
		{OpWriteOnlyImm, true, true},
		{OpReadRespFirst, false, false},
		{OpReadRespOnly, true, false},
		{OpReadRequest, false, false},
		{OpAcknowledge, false, false},
	}
	for _, c := range cases {
		if c.op.IsLast() != c.last {
			t.Errorf("%v IsLast = %v", c.op, c.op.IsLast())
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
