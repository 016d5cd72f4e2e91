// Package transporttest loses chosen packets at the end hosts, for tests
// that exercise a transport's loss recovery on an otherwise lossless
// fabric. A packet a wrapper drops was delivered by the fabric (its census
// counts it as Delivered); the wrapped transport never sees it.
package transporttest

import (
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// Sink returns s behind a filter that discards every data packet for
// which drop returns true. A nil drop returns s itself.
func Sink(s transport.Sink, drop func(*packet.Packet) bool) transport.Sink {
	if drop == nil {
		return s
	}
	return lossySink{s, drop}
}

// Source returns s behind a filter that discards every control packet
// for which drop returns true. A nil drop returns s itself.
func Source(s transport.Source, drop func(*packet.Packet) bool) transport.Source {
	if drop == nil {
		return s
	}
	return lossySource{s, drop}
}

type lossySink struct {
	transport.Sink
	drop func(*packet.Packet) bool
}

func (l lossySink) HandleData(pkt *packet.Packet, now sim.Time) {
	if !l.drop(pkt) {
		l.Sink.HandleData(pkt, now)
	}
}

type lossySource struct {
	transport.Source
	drop func(*packet.Packet) bool
}

func (l lossySource) HandleControl(pkt *packet.Packet, now sim.Time) {
	if !l.drop(pkt) {
		l.Source.HandleControl(pkt, now)
	}
}
