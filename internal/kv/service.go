package kv

// This file is the service proper: the leader (RPC server + replication
// driver + failover state machine), the followers (apply + ack), and the
// clients (open-loop issue queue + timeout/backoff/give-up policy).
//
// The service runs on a single-engine fabric. Every host-owned object
// (QP, ring, timer) is built inside an attach event scheduled at t=0
// under the owning host's clock, so its construction ranks are a constant
// of the scenario.

import (
	"bytes"
	"sort"

	"github.com/irnsim/irn/internal/fabric"
	"github.com/irnsim/irn/internal/fifo"
	"github.com/irnsim/irn/internal/metrics"
	"github.com/irnsim/irn/internal/packet"
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/verbs"
)

// Ring geometry. Slots comfortably exceed the maximum in-flight count
// (clients run one outstanding request; the leader's replication window
// is bounded by the clients'), so slot reuse never overwrites an
// unconsumed frame.
const (
	reqSlots  = 16 // per-client request ring (ModeWriteImm)
	respSlots = 16 // per-client response ring
	logSlots  = 64 // per-follower replication log ring
)

// rkeys. Memories are per-host, so only the leader's (which serves all
// clients) needs per-client keys.
const (
	rkLog  = 1 // follower memory: replication log ring
	rkResp = 2 // client memory: response ring
	rkReq  = 0x100
)

// Service is one configured kv deployment bound to a fabric.
type Service struct {
	net  *fabric.Network
	pl   Placement
	o    Options
	mix  mix
	qcfg verbs.Config
	seed uint64

	// cursors[i] is client i's arrival stream: what is left of the request
	// schedule is the state of its generator, never a table of requests.
	cursors    []cursor
	phaseNames []string
	// windows is Options.Phases with each name resolved to its bucket.
	// Validate keeps them ordered by From and pairwise disjoint, so at
	// most one window — the last starting at or before t — can hold a
	// time t.
	windows []phaseWindow

	leader    *server
	followers []*follower
	clients   []*client
	// resolved counts the requests that reached a terminal outcome: the
	// run's completion (see Done).
	resolved sim.Completion
}

// Widen is the sim.WindowConfig.Widen hook of a kv run (see
// sim.Completion.Widen). A single-engine run never calls it, so the
// simulator does not either; it stays because benchmark/probe.go compiles
// against it.
func (s *Service) Widen(shard int) bool { return s.resolved.Widen(shard) }

// phaseWindow is one Options.Phases entry with its bucket resolved.
type phaseWindow struct {
	from, to sim.Time // to == 0: open-ended
	bucket   int
}

// issue is one request: its index in the run-wide schedule (the wire
// sequence number), when it is due, and what it asks.
type issue struct {
	r   int
	at  sim.Time
	put bool
	key uint64
}

// cursor generates one client's open-loop arrivals in order — exponential
// gaps, op mix and keys from the client's own "kv/arrivals" stream — and
// holds the one it has generated and not yet handed over. Request r
// belongs to client r % Clients, so the client's k-th request is index
// k·Clients + i and fires under rank first + k·stride of its host's clock.
type cursor struct {
	rng    *sim.RNG
	next   issue
	left   int    // requests not yet generated
	first  uint64 // rank of the client's request 0
	stride uint64 // clients sharing the host: their requests interleave
}

// newCursor starts client i's arrival stream with nothing generated.
func (s *Service) newCursor(i int) cursor {
	n := s.o.Requests / s.o.Clients
	if i < s.o.Requests%s.o.Clients {
		n++
	}
	return cursor{
		rng:  sim.NewRNG(sim.DeriveSeed(s.seed, "kv/arrivals", i)),
		next: issue{r: i - s.o.Clients, at: issueStart},
		left: n,
	}
}

// advance generates the client's next request of s's mix into c.next;
// false once the stream is exhausted.
func (c *cursor) advance(s *Service) bool {
	if c.left == 0 {
		return false
	}
	c.left--
	gap := sim.Duration(float64(s.mix.issueGap) * c.rng.ExpFloat64())
	c.next = issue{
		r:   c.next.r + s.o.Clients,
		at:  c.next.at.Add(gap),
		put: c.rng.Float64() < s.mix.putFraction,
		key: uint64(c.rng.Intn(s.mix.keySpace)),
	}
	return true
}

// Service event kinds.
const (
	evAttachLeader uint8 = iota
	evAttachFollower
	evAttachClient
	evIssue
)

// New builds a service over net with the given placement. qcfg is the
// verbs transport configuration every QP uses (MaxRetries is forced to
// zero: the retry budget lives in the client policy, not the transport).
// The request schedule — arrival times, op mix, keys — is a deterministic
// function of seed, generated as the run consumes it (see cursor). net
// must be a single-shard fabric, and o's phases in the order Validate
// accepts.
func New(net *fabric.Network, pl Placement, qcfg verbs.Config, o Options, seed uint64) *Service {
	if net.Shards() > 1 {
		panic("kv: the service requires a single-shard fabric")
	}
	o = o.WithDefaults()
	if len(pl.Followers) != o.Followers || len(pl.Clients) != o.Clients {
		panic("kv: placement does not match options")
	}
	qcfg.MaxRetries = 0
	s := &Service{
		net:       net,
		pl:        pl,
		o:         o,
		mix:       defaultMix,
		qcfg:      qcfg,
		seed:      seed,
		followers: make([]*follower, o.Followers),
		clients:   make([]*client, o.Clients),
	}
	s.resolved.Init(1, o.Requests, net.WindowSlack())
	s.phaseNames, s.windows = resolvePhases(o.Phases)
	return s
}

// resolvePhases names the buckets — "steady" first, then each phase name
// in order of first appearance — and resolves every window to its bucket
// once, so bucketing a request compares no strings.
func resolvePhases(phases []Phase) (names []string, windows []phaseWindow) {
	names = []string{"steady"}
	bucket := map[string]int{"steady": 0}
	windows = make([]phaseWindow, len(phases))
	for k, w := range phases {
		b, known := bucket[w.Name]
		if !known {
			b = len(names)
			bucket[w.Name] = b
			names = append(names, w.Name)
		}
		windows[k] = phaseWindow{from: w.From, to: w.To, bucket: b}
	}
	return names, windows
}

// slotBytes is the ring-slot size: the largest frame plus header slack.
func (s *Service) slotBytes() int { return 32 + s.mix.valueBytes }

// bucketOf maps a scheduled issue time to its phase bucket: that of the
// window holding t, found by binary search.
func (s *Service) bucketOf(t sim.Time) int {
	k := sort.Search(len(s.windows), func(k int) bool { return s.windows[k].from > t })
	if k > 0 {
		if w := s.windows[k-1]; w.to == 0 || t < w.to {
			return w.bucket
		}
	}
	return 0
}

// Start schedules the attach events (t=0, one per host, under the
// host's clock) and each client's first request, and returns the last
// issue time of the whole schedule (the deadline anchor). A client's
// arrivals are time-ordered, so only its next one is ever queued: the
// evIssue handler schedules request k+1 as it hands over k.
//
// The ranks are the ones a loop over every request in index order would
// draw from the host clocks: hosts that serve several clients see those
// clients' requests interleaved, so each host's block is reserved whole
// and client number j of the stride sharing it takes ranks first+j,
// first+j+stride, and so on.
func (s *Service) Start() (lastIssue sim.Time) {
	net := s.net
	lh := s.pl.Leader
	net.EngineOf(lh).ScheduleEventFrom(net.Clock(lh), 0, s, evAttachLeader, 0)
	for j, h := range s.pl.Followers {
		net.EngineOf(h).ScheduleEventFrom(net.Clock(h), 0, s, evAttachFollower, uint64(j))
	}
	for i, h := range s.pl.Clients {
		net.EngineOf(h).ScheduleEventFrom(net.Clock(h), 0, s, evAttachClient, uint64(i))
	}

	s.cursors = make([]cursor, s.o.Clients)
	for i := range s.cursors {
		// A dry pass over a throwaway copy of the stream finds the client's
		// last issue time without storing the schedule.
		for dry := s.newCursor(i); dry.advance(s); {
			lastIssue = max(lastIssue, dry.next.at)
		}
		s.cursors[i] = s.newCursor(i)
	}
	for i, h := range s.pl.Clients {
		if s.cursors[i].stride != 0 {
			continue // an earlier client's host: block already reserved
		}
		var sharing []int
		total := 0
		for i2 := i; i2 < len(s.pl.Clients); i2++ {
			if s.pl.Clients[i2] == h {
				sharing = append(sharing, i2)
				total += s.cursors[i2].left
			}
		}
		first := net.Clock(h).Reserve(total)
		for j, i2 := range sharing {
			s.cursors[i2].first = first + uint64(j)
			s.cursors[i2].stride = uint64(len(sharing))
		}
	}
	for i := range s.cursors {
		s.scheduleIssue(i)
	}
	return lastIssue
}

// scheduleIssue generates client i's next request — its k-th, index
// k·Clients + i — and queues the evIssue; a no-op once the client's stream
// is exhausted.
func (s *Service) scheduleIssue(i int) {
	c := &s.cursors[i]
	if !c.advance(s) {
		return
	}
	h, k := s.pl.Clients[i], uint64(c.next.r/s.o.Clients)
	s.net.EngineOf(h).ScheduleRanked(c.next.at, c.first+k*c.stride, s, evIssue, uint64(i))
}

// HandleEvent implements sim.Handler; each event addresses one host.
func (s *Service) HandleEvent(kind uint8, arg uint64) {
	switch kind {
	case evAttachLeader:
		s.attachLeader()
	case evAttachFollower:
		s.attachFollower(int(arg))
	case evAttachClient:
		s.attachClient(int(arg))
	case evIssue:
		i := int(arg)
		is := s.cursors[i].next
		s.scheduleIssue(i)
		s.clients[i].enqueue(is)
	}
}

// Flow-ID layout: two flows per QP pair, clients first, then followers.
func (s *Service) clientFlows(i int) (c2l, l2c packet.FlowID) {
	return packet.FlowID(1 + 2*i), packet.FlowID(2 + 2*i)
}

func (s *Service) followerFlows(j int) (l2f, f2l packet.FlowID) {
	base := 2 * s.o.Clients
	return packet.FlowID(base + 1 + 2*j), packet.FlowID(base + 2 + 2*j)
}

// Done reports whether every request reached a terminal outcome; polled
// at window barriers.
func (s *Service) Done() bool { return s.resolved.Done() }

// LastResolve returns the time the final request resolved; with the
// fabric's window slack added it is the canonical run horizon.
func (s *Service) LastResolve() sim.Time { return s.resolved.Last() }

// TransportStats sums the verbs-level counters over every QP, in
// deterministic order (clients, then the leader's client- and
// follower-facing QPs, then followers).
func (s *Service) TransportStats() (retransmits, timeouts, rnrNacks, drops uint64) {
	add := func(q *verbs.QP) {
		retransmits += q.Retransmits
		timeouts += q.Timeouts
		rnrNacks += q.RNRNacks
		drops += q.Drops
	}
	for _, c := range s.clients {
		if c != nil {
			add(c.ep.qp)
		}
	}
	if s.leader != nil {
		for _, ep := range s.leader.chalves {
			add(ep.qp)
		}
		for _, ep := range s.leader.fhalves {
			add(ep.qp)
		}
	}
	for _, f := range s.followers {
		if f != nil {
			add(f.ep.qp)
		}
	}
	return
}

// Report aggregates the run, merging per-client state in client-index
// order. Call only after the run completes.
func (s *Service) Report() *Report {
	rep := &Report{
		Mode:      s.o.Mode.String(),
		Clients:   s.o.Clients,
		Followers: s.o.Followers,
		Commit:    &metrics.Histogram{},
		RPC:       &metrics.Histogram{},
		Phases:    make([]PhaseStat, len(s.phaseNames)),
	}
	for b, n := range s.phaseNames {
		rep.Phases[b].Name = n
	}
	for _, c := range s.clients {
		if c == nil {
			continue
		}
		rep.Stats.add(c.st)
		rep.Commit.Merge(&c.commitHist)
		rep.RPC.Merge(&c.rpcHist)
		for b := range c.phase {
			rep.Phases[b].Issued += c.phase[b].Issued
			rep.Phases[b].WithinSLO += c.phase[b].WithinSLO
		}
	}
	if s.leader != nil {
		rep.DegradedEnters = s.leader.degradedEnters
		rep.LeaderReadOnly = s.leader.readOnlyResp
	}
	if rep.Resolved > 0 {
		rep.Availability = float64(rep.WithinSLO) / float64(rep.Resolved)
	}
	if rep.Commit.N() > 0 {
		rep.CommitP50 = sim.Duration(rep.Commit.Quantile(50))
		rep.CommitP99 = sim.Duration(rep.Commit.Quantile(99))
	}
	return rep
}

// ---------------------------------------------------------------------
// Leader.

// logEntry is one uncommitted Put in the leader's log. It holds one
// reference on the leader's copy of the request frame, the replication
// payload, whose value bytes commit copies into the store.
type logEntry struct {
	client int
	seq    uint64
	key    uint64
	frame  *frame
	at     sim.Time // append time; ages against quorumTimeout
	acks   int
}

// cached is the per-client dedup record: the last answered request and
// its response frame (one reference; nil before the first answer), resent
// verbatim on duplicate arrivals.
type cached struct {
	seq  uint64
	resp *frame
}

// server is the leader: RPC endpoint, replication driver, and the
// degraded/read-only failover state machine.
type server struct {
	s   *Service
	nic *fabric.NIC
	mem *verbs.Memory

	srq     *verbs.SRQ
	srqBufs [][]byte
	pool    framePool

	chalves  []*endpoint // client-facing QPs, by client index
	fhalves  []*endpoint // follower-facing QPs, by follower index
	respSeq  []uint32    // per-client response ring sequence (ModeWriteImm)
	lastDone []cached

	// store owns its values: commit copies a Put's bytes in (apply), so
	// nothing else aliases them.
	store map[uint64][]byte
	// log is the uncommitted suffix of the replicated log: entry k has the
	// absolute index commit+k, the number followers see on the wire. An
	// entry is dropped the moment it commits, so the log holds at most
	// one entry per client however long the run.
	log    fifo.Queue[logEntry]
	commit int // entries committed so far
	need   int // follower acks required per entry (quorum − leader)

	degraded       bool
	degradedEnters uint64
	readOnlyResp   uint64
}

func (s *Service) attachLeader() {
	nic := s.net.NIC(s.pl.Leader)
	srv := &server{
		s:        s,
		nic:      nic,
		mem:      verbs.NewMemory(),
		pool:     framePool{size: s.slotBytes()},
		chalves:  make([]*endpoint, s.o.Clients),
		fhalves:  make([]*endpoint, s.o.Followers),
		respSeq:  make([]uint32, s.o.Clients),
		lastDone: make([]cached, s.o.Clients),
		store:    make(map[uint64][]byte),
		need:     (s.o.Followers + 1) / 2,
	}
	slot := s.slotBytes()
	if s.o.Mode == ModeSend {
		srv.srq = verbs.NewSRQ()
		n := 4 * s.o.Clients
		srv.srqBufs = make([][]byte, n)
		for id := 0; id < n; id++ {
			srv.srqBufs[id] = make([]byte, slot)
			srv.srq.Post(uint64(id), srv.srqBufs[id])
		}
	}
	for i := 0; i < s.o.Clients; i++ {
		i := i
		cq := &verbs.CQ{}
		cq.OnComplete(func(e verbs.CQE) { srv.onClientCQE(i, e) })
		out, in := s.clientFlows(i)
		ep := attachEndpoint(nic, s.pl.Clients[i], in, out, s.qcfg, srv.mem, cq, "leader-c")
		srv.chalves[i] = ep
		if s.o.Mode == ModeSend {
			ep.qp.UseSRQ(srv.srq)
		} else {
			srv.mem.Register(rkReq+uint32(i), make([]byte, reqSlots*slot))
			for k := 0; k < 2*reqSlots; k++ {
				ep.qp.PostRecv(0, nil)
			}
		}
	}
	for j := 0; j < s.o.Followers; j++ {
		j := j
		cq := &verbs.CQ{}
		cq.OnComplete(func(e verbs.CQE) { srv.onFollowerCQE(j, e) })
		out, in := s.followerFlows(j)
		ep := attachEndpoint(nic, s.pl.Followers[j], out, in, s.qcfg, srv.mem, cq, "leader-f")
		srv.fhalves[j] = ep
		for k := 0; k < 2*logSlots; k++ {
			ep.qp.PostRecv(0, nil)
		}
	}
	s.leader = srv
}

// onClientCQE consumes one completion on client i's QP: requests in,
// plus our own response-send completions.
func (srv *server) onClientCQE(i int, e verbs.CQE) {
	if !e.Receive {
		srv.chalves[i].sent(&srv.pool, e)
		return
	}
	// The frame is handled in place and its buffer handed back after:
	// handle copies what must outlive this event before it returns.
	switch srv.s.o.Mode {
	case ModeSend:
		buf := srv.srqBufs[int(e.WQEID)]
		srv.handle(i, buf[:e.Len], e.At)
		srv.srq.Post(e.WQEID, buf) // repost the consumed SRQ WQE
	default: // ModeWriteImm
		slot := int(e.Imm) % reqSlots
		ring, _ := srv.mem.View(rkReq+uint32(i), uint64(slot*srv.s.slotBytes()), srv.s.slotBytes())
		srv.handle(i, ring, e.At)
		srv.chalves[i].qp.PostRecv(0, nil)
	}
}

// handle processes one client request frame on the leader. buf is only
// valid during the call.
func (srv *server) handle(i int, buf []byte, now sim.Time) {
	req, n, err := viewRequest(buf)
	if err != nil {
		return
	}
	ld := &srv.lastDone[i]
	if ld.resp != nil && req.Seq == ld.seq {
		srv.sendResp(i, ld.resp) // duplicate of the answered request
		return
	}
	if ld.resp != nil && req.Seq < ld.seq {
		return // stale retry the client already abandoned
	}
	if req.Op == OpGet {
		st := RespOK
		val, ok := srv.store[req.Key]
		if !ok {
			st = RespNotFound
		}
		srv.reply(i, Response{Client: uint32(i), Seq: req.Seq, Status: st, Value: val})
		return
	}
	// Put: drop duplicates of an entry still in flight (its response
	// comes at commit), then run the failover state machine.
	for k := 0; k < srv.log.Len(); k++ {
		if en := srv.log.At(k); en.client == i && en.seq == req.Seq {
			return
		}
	}
	srv.refreshDegraded(now)
	if srv.degraded {
		srv.readOnlyResp++
		srv.reply(i, Response{Client: uint32(i), Seq: req.Seq, Status: RespReadOnly})
		return
	}
	// The leader's one copy of the request. The encoding is canonical, so
	// the frame the client sent is the frame the followers are sent; the
	// log entry holds it until commit, each follower send until its CQE.
	f := srv.pool.get()
	f.buf = append(f.buf[:0], buf[:n]...)
	f.refs++
	idx := srv.commit + srv.log.Len()
	srv.log.Push(logEntry{
		client: i,
		seq:    req.Seq,
		key:    req.Key,
		frame:  f,
		at:     now,
	})
	if srv.need == 0 {
		srv.advanceCommit(now)
		return
	}
	slot := uint64(idx%logSlots) * uint64(srv.s.slotBytes())
	for j := range srv.fhalves {
		srv.fhalves[j].post(f, verbs.Request{
			ID:   uint64(idx),
			Op:   verbs.OpWriteImm,
			RKey: rkLog,
			VA:   slot,
			Imm:  uint32(idx),
		})
	}
}

// refreshDegraded runs the failover state machine: recover when the
// commit point caught up; degrade when the oldest uncommitted entry has
// aged past the quorum timeout.
func (srv *server) refreshDegraded(now sim.Time) {
	if srv.log.Len() == 0 {
		srv.degraded = false
		return
	}
	if !srv.degraded && now.Sub(srv.log.At(0).at) > quorumTimeout {
		srv.degraded = true
		srv.degradedEnters++
	}
}

// onFollowerCQE consumes follower j's ack (a zero-length WRITE-with-imm
// whose immediate is the log index). An ack for an index outside the
// retained log — already committed and dropped, or never appended — is
// ignored.
func (srv *server) onFollowerCQE(j int, e verbs.CQE) {
	if !e.Receive {
		srv.fhalves[j].sent(&srv.pool, e)
		return
	}
	srv.fhalves[j].qp.PostRecv(0, nil)
	k := int(e.Imm) - srv.commit
	if k < 0 || k >= srv.log.Len() {
		return
	}
	srv.log.At(k).acks++
	srv.advanceCommit(e.At)
}

// advanceCommit applies and answers the quorum-acked log prefix, and
// clears degradation once fully caught up.
func (srv *server) advanceCommit(now sim.Time) {
	for srv.log.Len() > 0 && srv.log.At(0).acks >= srv.need {
		en := srv.log.Pop()
		apply(srv.store, en.key, en.frame.buf[reqHeaderLen:])
		srv.pool.unref(en.frame)
		srv.commit++
		srv.reply(en.client, Response{Client: uint32(en.client), Seq: en.seq, Status: RespOK})
	}
	if srv.degraded && srv.log.Len() == 0 {
		srv.degraded = false
	}
}

// reply caches the response for duplicate suppression, in place of the
// client's previous one, and transmits it.
func (srv *server) reply(i int, resp Response) {
	f := srv.pool.get()
	f.buf = MarshalResponse(f.buf[:0], resp)
	f.refs++
	if old := srv.lastDone[i].resp; old != nil {
		srv.pool.unref(old)
	}
	srv.lastDone[i] = cached{seq: resp.Seq, resp: f}
	srv.sendResp(i, f)
}

// sendResp transmits a response frame on the chosen wire variant.
func (srv *server) sendResp(i int, f *frame) {
	switch srv.s.o.Mode {
	case ModeSend:
		srv.chalves[i].post(f, verbs.Request{Op: verbs.OpSend})
	default: // ModeWriteImm
		srv.respSeq[i]++
		sq := srv.respSeq[i]
		srv.chalves[i].post(f, verbs.Request{
			Op:   verbs.OpWriteImm,
			RKey: rkResp,
			VA:   uint64(sq%respSlots) * uint64(srv.s.slotBytes()),
			Imm:  sq,
		})
	}
}

// apply copies a Put's value into a replica's store. Nothing aliases a
// store's values, so one of the same length is overwritten in place.
func apply(store map[uint64][]byte, key uint64, val []byte) {
	if old, ok := store[key]; ok && len(old) == len(val) {
		copy(old, val)
	} else {
		store[key] = bytes.Clone(val)
	}
}

// ---------------------------------------------------------------------
// Follower.

// follower applies replicated entries from its log ring and acks each
// with a zero-length WRITE-with-imm carrying the log index.
type follower struct {
	s     *Service
	j     int
	ep    *endpoint
	mem   *verbs.Memory
	store map[uint64][]byte
}

func (s *Service) attachFollower(j int) {
	nic := s.net.NIC(s.pl.Followers[j])
	f := &follower{s: s, j: j, mem: verbs.NewMemory(), store: make(map[uint64][]byte)}
	f.mem.Register(rkLog, make([]byte, logSlots*s.slotBytes()))
	cq := &verbs.CQ{}
	cq.OnComplete(f.onCQE)
	out, in := s.followerFlows(j)
	f.ep = attachEndpoint(nic, s.pl.Leader, in, out, s.qcfg, f.mem, cq, "follower")
	for k := 0; k < 2*logSlots; k++ {
		f.ep.qp.PostRecv(0, nil)
	}
	s.followers[j] = f
}

func (f *follower) onCQE(e verbs.CQE) {
	if !e.Receive {
		return
	}
	f.ep.qp.PostRecv(0, nil)
	idx := int(e.Imm)
	slot := uint64(idx%logSlots) * uint64(f.s.slotBytes())
	ring, _ := f.mem.View(rkLog, slot, f.s.slotBytes())
	if en, _, err := viewRequest(ring); err == nil {
		apply(f.store, en.Key, en.Value)
	}
	_ = f.ep.qp.PostSend(verbs.Request{ID: uint64(idx), Op: verbs.OpWriteImm, Imm: uint32(idx)})
}

// ---------------------------------------------------------------------
// Client.

// phaseCount is one client's per-phase availability tally.
type phaseCount struct {
	Issued    uint64
	WithinSLO uint64
}

// client runs the robustness policy: one outstanding request, a FIFO
// backlog of scheduled issues, per-attempt timeouts, exponential backoff
// with deterministic jitter, bounded retries, give-up.
type client struct {
	s     *Service
	idx   int
	nic   *fabric.NIC
	ep    *endpoint
	mem   *verbs.Memory
	rng   *sim.RNG
	timer *sim.Timer

	recvBufs [][]byte // posted response buffers (ModeSend)
	val      []byte   // Put-payload scratch, rewritten per send
	pool     framePool

	queue     fifo.Queue[issue]
	cur       issue // outstanding request; valid while busy
	busy      bool
	attempt   int
	inBackoff bool
	seq       uint32 // wire sequence for request-ring slots

	st         Stats
	phase      []phaseCount
	commitHist metrics.Histogram
	rpcHist    metrics.Histogram
}

// ckTimer is the client's only event kind: per-attempt timeout, or
// backoff expiry when inBackoff.
const ckTimer uint8 = 0

func (s *Service) attachClient(i int) {
	nic := s.net.NIC(s.pl.Clients[i])
	c := &client{
		s:     s,
		idx:   i,
		nic:   nic,
		mem:   verbs.NewMemory(),
		rng:   sim.NewRNG(sim.DeriveSeed(s.seed, "kv/backoff", i)),
		phase: make([]phaseCount, len(s.phaseNames)),
		pool:  framePool{size: s.slotBytes()},
	}
	slot := s.slotBytes()
	cq := &verbs.CQ{}
	cq.OnComplete(c.onCQE)
	out, in := s.clientFlows(i)
	c.ep = attachEndpoint(nic, s.pl.Leader, out, in, s.qcfg, c.mem, cq, "client")
	if s.o.Mode == ModeSend {
		c.recvBufs = make([][]byte, 8)
		for id := range c.recvBufs {
			c.recvBufs[id] = make([]byte, slot)
			c.ep.qp.PostRecv(uint64(id), c.recvBufs[id])
		}
	} else {
		c.mem.Register(rkResp, make([]byte, respSlots*slot))
		for k := 0; k < 2*respSlots; k++ {
			c.ep.qp.PostRecv(0, nil)
		}
	}
	c.timer = sim.NewHandlerTimer(nic.Engine(), nic.Clock(), c, ckTimer)
	s.clients[i] = c
}

// enqueue hands the client a scheduled request (the evIssue event).
func (c *client) enqueue(is issue) {
	c.st.Issued++
	c.queue.Push(is)
	if !c.busy && !c.inBackoff {
		c.startNext(c.nic.Now())
	}
}

// startNext pops the backlog and transmits.
func (c *client) startNext(now sim.Time) {
	c.busy = c.queue.Len() > 0
	if !c.busy {
		return
	}
	c.cur = c.queue.Pop()
	c.attempt = 0
	c.send(now)
}

// valueFor generates the deterministic Put payload for request r into
// the client's scratch buffer — safe to reuse across sends because
// MarshalRequest copies it into the wire frame and nothing else retains
// it. Byte i is byte(r*31 + i), a pattern that repeats every 256 bytes:
// one period is written byte by byte, then doubled by copy.
func (c *client) valueFor(r int) []byte {
	if c.val == nil {
		c.val = make([]byte, c.s.mix.valueBytes)
	}
	v, first := c.val, byte(r*31)
	n := min(256, len(v))
	for i := range v[:n] {
		v[i] = first + byte(i)
	}
	for n < len(v) {
		n += copy(v[n:], v[:n])
	}
	return v
}

// send transmits the current request (attempt c.attempt) and arms the
// per-attempt timeout.
func (c *client) send(now sim.Time) {
	is := &c.cur
	r := is.r
	req := Request{Client: uint32(c.idx), Seq: uint64(r), Key: is.key}
	if is.put {
		req.Op = OpPut
		req.Value = c.valueFor(r)
	}
	if c.attempt > 0 {
		c.st.Retries++
	}
	f := c.pool.get()
	f.buf = MarshalRequest(f.buf[:0], req)
	switch c.s.o.Mode {
	case ModeSend:
		c.ep.post(f, verbs.Request{ID: uint64(r), Op: verbs.OpSend})
	default: // ModeWriteImm
		c.seq++
		c.ep.post(f, verbs.Request{
			ID:   uint64(r),
			Op:   verbs.OpWriteImm,
			RKey: rkReq + uint32(c.idx),
			VA:   uint64(c.seq%reqSlots) * uint64(c.s.slotBytes()),
			Imm:  c.seq,
		})
	}
	c.timer.Arm(requestTimeout)
}

// HandleEvent implements sim.Handler: the shared timer fires either a
// backoff expiry (resend now) or a per-attempt timeout.
func (c *client) HandleEvent(kind uint8, arg uint64) {
	now := c.nic.Now()
	if !c.busy {
		return
	}
	if c.inBackoff {
		c.inBackoff = false
		c.send(now)
		return
	}
	c.attempt++
	if c.attempt > maxRetries {
		c.giveUp(now)
		return
	}
	c.st.Timeouts++
	d := backoffBase * sim.Duration(1<<(c.attempt-1))
	jitter := sim.Duration(c.rng.Uint64() % uint64(d))
	c.inBackoff = true
	c.timer.Arm(d/2 + jitter) // delay in [d/2, 3d/2)
}

// onCQE consumes completions on the client QP: responses, plus our own
// request-send completions.
func (c *client) onCQE(e verbs.CQE) {
	if !e.Receive {
		c.ep.sent(&c.pool, e)
		return
	}
	// Only the status and sequence number are read, in place: a Get's
	// value is never copied out of the response buffer.
	var resp Response
	var err error
	switch c.s.o.Mode {
	case ModeSend:
		id := int(e.WQEID)
		buf := c.recvBufs[id]
		resp, _, err = viewResponse(buf[:e.Len])
		c.ep.qp.PostRecv(e.WQEID, buf)
	default: // ModeWriteImm
		slot := int(e.Imm) % respSlots
		ring, _ := c.mem.View(rkResp, uint64(slot*c.s.slotBytes()), c.s.slotBytes())
		resp, _, err = viewResponse(ring)
		c.ep.qp.PostRecv(0, nil)
	}
	if err != nil {
		return
	}
	if !c.busy || resp.Seq != uint64(c.cur.r) {
		return // late response for a request we already moved past
	}
	c.resolve(resp.Status, e.At)
}

// resolve finishes the outstanding request with a response outcome.
func (c *client) resolve(status RespStatus, now sim.Time) {
	c.timer.Cancel()
	c.inBackoff = false
	is := &c.cur
	lat := now.Sub(is.at) // measured from the *scheduled* issue time
	c.st.Resolved++
	c.s.resolved.Add(0, c.nic.Engine(), now)
	b := c.s.bucketOf(is.at)
	c.phase[b].Issued++
	switch status {
	case RespOK, RespNotFound:
		if is.put {
			c.st.Committed++
			c.commitHist.Observe(int64(lat))
		} else {
			c.st.GetsOK++
		}
		c.rpcHist.Observe(int64(lat))
		if lat <= SLO {
			c.st.WithinSLO++
			c.phase[b].WithinSLO++
		}
	case RespReadOnly:
		c.st.ReadOnly++
	}
	c.startNext(now)
}

// giveUp abandons the outstanding request after the retry budget.
func (c *client) giveUp(now sim.Time) {
	c.timer.Cancel()
	c.inBackoff = false
	is := &c.cur
	c.st.Resolved++
	c.s.resolved.Add(0, c.nic.Engine(), now)
	c.st.GiveUps++
	c.phase[c.s.bucketOf(is.at)].Issued++
	c.startNext(now)
}
