package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/transport"
)

// boundary names one layer boundary the probe launcher decorates.
type boundary uint8

const (
	bHasData boundary = iota
	bNextPacket
	bHandleData
	bHandleControl
	bCC
	bMetricsAdd
	numBoundaries
)

// boundaryNames are the trace.<name>.calls / .busy_s metric stems.
var boundaryNames = [numBoundaries]string{
	"transport.has_data", "transport.next_packet", "transport.handle_data",
	"transport.handle_control", "cc", "metrics.add",
}

// sampleEvery is the span sampling period: one top-level boundary span in
// this many is kept, with its children, for the jsonl trace file.
const sampleEvery = 1024

// span is one recorded interval. Parent is the ID of the span that caused
// it (0 = none); spans of one flow share Flow.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Flow    uint64 `json:"flow,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// tracer attributes the wall-clock of one probe run to layer boundaries.
// Boundary spans nest (a cc call runs inside a transport call, the
// metrics add inside handle_data), so each span's self time is its
// duration minus what its child spans covered; self times therefore
// partition the run and the shares sum to one by construction. Everything
// stays in memory until the run ends. Single-goroutine, like the serial
// engine it observes.
type tracer struct {
	t0    time.Time
	calls [numBoundaries]uint64
	busy  [numBoundaries]int64 // self ns

	child int64 // ns covered by finished children of the open span
	depth int
	top   uint64 // top-level boundary spans seen, for sampling
	keep  bool   // the open top-level span is sampled
	cur   int    // ID of the innermost open recorded span
	last  int    // last span ID handed out
	spans []span

	pktHops uint64 // Σ path hops over data packets handed to sinks
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// coarse records a top-level phase span (set-up, run, fold) and returns
// its duration in seconds. While fn runs the phase is the parent of every
// sampled boundary span.
func (t *tracer) coarse(name string, fn func()) float64 {
	t.last++
	id, start, inside := t.last, t.now(), t.busyNs()
	t.cur = id
	fn()
	end := t.now()
	t.cur = 0
	self := end - start - (t.busyNs() - inside)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNs: start, EndNs: end, SelfNs: self})
	return float64(end-start) / 1e9
}

// busyNs sums the self time of every boundary span so far.
func (t *tracer) busyNs() int64 {
	var ns int64
	for _, b := range t.busy {
		ns += b
	}
	return ns
}

// openSpan is the state a boundary span carries between enter and exit.
type openSpan struct {
	start  int64
	saved  int64 // the parent's child-time accumulator
	id     int
	parent int
}

func (t *tracer) enter() openSpan {
	o := openSpan{saved: t.child, parent: t.cur}
	t.child = 0
	if t.depth == 0 {
		t.top++
		t.keep = t.top%sampleEvery == 0
	}
	if t.keep {
		t.last++
		o.id = t.last
		t.cur = o.id
	}
	t.depth++
	o.start = t.now()
	return o
}

func (t *tracer) exit(b boundary, o openSpan, flow packet.FlowID) {
	end := t.now()
	d := end - o.start
	self := d - t.child
	t.calls[b]++
	t.busy[b] += self
	t.child = o.saved + d
	t.depth--
	if t.keep {
		t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Name: boundaryNames[b],
			Flow: uint64(flow), StartNs: o.start, EndNs: end, SelfNs: self})
		t.cur = o.parent
	}
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// tracedSource times the sender half of a transport. Flow and Done are
// field reads and pass through untimed.
type tracedSource struct {
	transport.Source
	t    *tracer
	flow packet.FlowID
}

func (s *tracedSource) HasData(now sim.Time) (bool, sim.Time) {
	o := s.t.enter()
	ready, at := s.Source.HasData(now)
	s.t.exit(bHasData, o, s.flow)
	return ready, at
}

func (s *tracedSource) NextPacket(now sim.Time) *packet.Packet {
	o := s.t.enter()
	pkt := s.Source.NextPacket(now)
	s.t.exit(bNextPacket, o, s.flow)
	return pkt
}

func (s *tracedSource) HandleControl(pkt *packet.Packet, now sim.Time) {
	o := s.t.enter()
	s.Source.HandleControl(pkt, now)
	s.t.exit(bHandleControl, o, s.flow)
}

// tracedSink times the receiver half and counts the hops each delivered
// data packet travelled (fixed per flow, so computed once at attach).
type tracedSink struct {
	inner transport.Sink
	t     *tracer
	hops  uint64
}

func (s *tracedSink) HandleData(pkt *packet.Packet, now sim.Time) {
	s.t.pktHops += s.hops
	o := s.t.enter()
	s.inner.HandleData(pkt, now)
	s.t.exit(bHandleData, o, pkt.Flow)
}

// tracedCC times a congestion controller. Stop forwards to controllers
// with background timers (DCQCN), which senders look for at completion.
type tracedCC struct {
	inner transport.Controller
	t     *tracer
	flow  packet.FlowID
}

func (c *tracedCC) OnAck(now sim.Time, rtt sim.Duration, acked int, ecnEcho bool) {
	o := c.t.enter()
	c.inner.OnAck(now, rtt, acked, ecnEcho)
	c.t.exit(bCC, o, c.flow)
}

func (c *tracedCC) OnCNP(now sim.Time) {
	o := c.t.enter()
	c.inner.OnCNP(now)
	c.t.exit(bCC, o, c.flow)
}

func (c *tracedCC) OnLoss(now sim.Time) {
	o := c.t.enter()
	c.inner.OnLoss(now)
	c.t.exit(bCC, o, c.flow)
}

func (c *tracedCC) SendDelay(wire int) sim.Duration {
	o := c.t.enter()
	d := c.inner.SendDelay(wire)
	c.t.exit(bCC, o, c.flow)
	return d
}

func (c *tracedCC) WindowPackets() int {
	o := c.t.enter()
	w := c.inner.WindowPackets()
	c.t.exit(bCC, o, c.flow)
	return w
}

func (c *tracedCC) Stop() {
	if st, ok := c.inner.(interface{ Stop() }); ok {
		st.Stop()
	}
}

// tracedCompleter times the completion path: the launcher's FlowDone,
// which is the metrics record plus a counter bump.
type tracedCompleter struct {
	inner transport.Completer
	t     *tracer
}

func (c *tracedCompleter) FlowDone(fl *transport.Flow, now sim.Time) {
	o := c.t.enter()
	c.inner.FlowDone(fl, now)
	c.t.exit(bMetricsAdd, o, fl.ID)
}
