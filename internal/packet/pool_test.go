package packet

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestPoolRoundTripZeroAllocs is the allocation-regression guard for the
// pooled packet lifecycle: once the free list is warm, a full
// construct → release round trip (one data packet and its ACK, the
// steady-state send/receive pattern) allocates nothing.
func TestPoolRoundTripZeroAllocs(t *testing.T) {
	p := NewPool()

	// Warm the free list.
	warm := []*Packet{p.NewData(1, 0, 1, 0, 1000, false), p.NewAck(1, 1, 0, 1)}
	for _, pkt := range warm {
		p.Release(pkt)
	}

	allocs := testing.AllocsPerRun(200, func() {
		d := p.NewData(1, 0, 1, 7, 1000, false)
		a := p.NewAck(1, 1, 0, 8)
		p.Release(d)
		p.Release(a)
	})
	if allocs != 0 {
		t.Fatalf("pooled send/receive round trip allocates %.1f/op, want 0", allocs)
	}
	if p.Cap() != poolChunk {
		t.Fatalf("pool owns %d packets, want the warm-up's one chunk of %d", p.Cap(), poolChunk)
	}
}

// TestPacketLayout holds a packet to one cache line: 64 bytes on 64-bit
// platforms, and every pooled packet 64-byte aligned, so a chunk size
// whose allocation is not line-aligned fails here.
func TestPacketLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned on 64-bit platforms only")
	}
	if got := unsafe.Sizeof(Packet{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(Queue{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Queue{}) = %d, want 16 (head and tail only)", got)
	}
	p := NewPool()
	for i := 0; i < 3*poolChunk; i++ {
		if a := uintptr(unsafe.Pointer(p.NewAck(1, 0, 1, 0))); a%64 != 0 {
			t.Fatalf("pooled packet %d at %#x is not 64-byte aligned", i, a)
		}
	}
}

// TestPoolReuseIsClean: a recycled packet must carry no state from its
// previous life.
func TestPoolReuseIsClean(t *testing.T) {
	p := NewPool()
	d := p.NewData(9, 3, 4, 100, 1000, true)
	d.CE = true
	d.ECT = true
	d.SentAt = 12345
	d.Verbs = &VPacket{}
	p.Release(d)

	a := p.NewAck(2, 4, 3, 5)
	if a != d {
		t.Fatal("expected LIFO reuse of the released packet")
	}
	if a.Type != TypeAck || a.CE || a.ECT || a.SentAt != 0 || a.PSN != 0 || a.Verbs != nil || a.Last {
		t.Fatalf("recycled packet carries stale state: %+v", a)
	}
	if a.CumAck != 5 || a.Flow != 2 || a.Wire != ControlFrame {
		t.Fatalf("recycled packet misconstructed: %+v", a)
	}
}

// TestPoolDoubleReleasePanics: releasing the same packet twice must fail
// loudly rather than corrupt the free list.
func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	d := p.NewData(1, 0, 1, 0, 100, false)
	p.Release(d)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Release(d)
}

// TestNilPoolDegradesGracefully: package-level constructors and nil pools
// allocate plainly; Release is a no-op.
func TestNilPoolDegradesGracefully(t *testing.T) {
	var p *Pool
	d := p.NewData(1, 0, 1, 0, 500, false)
	if d.Wire != 500+DataHeader {
		t.Fatalf("nil-pool NewData wire = %d", d.Wire)
	}
	p.Release(d) // must not panic
	if p.FreeLen() != 0 {
		t.Fatal("nil pool grew a free list")
	}
	if got := NewCNP(3, 1, 2); got.Type != TypeCNP || got.Wire != ControlFrame {
		t.Fatalf("package-level NewCNP = %+v", got)
	}
}

// TestPoolAbsorbsForeignPackets: packets built by the package-level
// constructors (tests, injected traffic) may die inside a pooled fabric;
// the pool adopts them.
func TestPoolAbsorbsForeignPackets(t *testing.T) {
	p := NewPool()
	d := NewData(1, 0, 1, 0, 100, false)
	p.Release(d)
	if p.FreeLen() != 1 || p.Live() != -1 {
		t.Fatalf("foreign packet not adopted: free=%d live=%d", p.FreeLen(), p.Live())
	}
	if got := p.NewCNP(1, 0, 1); got != d {
		t.Fatal("adopted packet not reused")
	}
}

// TestPoolFreeListIsLIFO: the free list is a stack threaded through the
// packets' own link, and its order is part of the determinism contract —
// which packet a constructor returns decides the pointer graph of every
// later run on the pool.
func TestPoolFreeListIsLIFO(t *testing.T) {
	p := NewPool()
	var pkts []*Packet
	for i := 0; i < 5; i++ {
		pkts = append(pkts, p.NewData(1, 0, 1, PSN(i), 100, false))
	}
	for _, pkt := range pkts {
		p.Release(pkt)
	}
	if p.FreeLen() != poolChunk || p.Live() != 0 {
		t.Fatalf("free=%d live=%d after releasing all 5", p.FreeLen(), p.Live())
	}
	for i := 4; i >= 2; i-- {
		if got := p.NewAck(1, 1, 0, 0); got != pkts[i] {
			t.Fatalf("reuse %d did not return the most recently released packet", 4-i)
		}
	}
	// Interleaved: a release goes on top of what is left.
	p.Release(pkts[3])
	for _, want := range []*Packet{pkts[3], pkts[1], pkts[0]} {
		if got := p.NewCNP(1, 0, 1); got != want {
			t.Fatal("interleaved release broke LIFO order")
		}
	}
	if p.Live() != 5 || p.Cap() != poolChunk {
		t.Fatalf("live=%d cap=%d, want 5 of one chunk", p.Live(), p.Cap())
	}
}

// TestPoolGrowsByChunks: the pool grows one poolChunk-packet array at a
// time, hands a chunk out in array order, and never invalidates a packet
// it handed out earlier.
func TestPoolGrowsByChunks(t *testing.T) {
	p := NewPool()
	const n = 2*poolChunk + 3
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkts[i] = p.NewData(1, 0, 1, PSN(i), 100, false)
	}
	if p.Cap() != 3*poolChunk || p.Live() != n {
		t.Fatalf("cap=%d live=%d, want %d/%d", p.Cap(), p.Live(), 3*poolChunk, n)
	}
	for i, pkt := range pkts {
		if pkt.PSN != PSN(i) {
			t.Fatalf("packet %d was overwritten: psn=%d", i, pkt.PSN)
		}
		if i%poolChunk != 0 && uintptr(unsafe.Pointer(pkt)) != uintptr(unsafe.Pointer(pkts[i-1]))+unsafe.Sizeof(Packet{}) {
			t.Fatalf("packet %d does not follow packet %d in its chunk", i, i-1)
		}
	}
}

// TestPoolResetReclaimsEverything: whatever a run left behind — packets
// never released, packets stranded in a queue, a foreign packet adopted, a
// scrambled free list — Reset makes the pool hand out its chunks in
// allocation order again, without growing.
func TestPoolResetReclaimsEverything(t *testing.T) {
	p := NewPool()
	draw := func(n int) []*Packet {
		out := make([]*Packet, n)
		for i := range out {
			out[i] = p.NewCNP(1, 0, 1)
		}
		return out
	}
	first := draw(poolChunk + 10)

	var q Queue
	q.Push(first[3])           // stranded in a queue at the cut-off
	p.Release(first[7])        // released out of order
	p.Release(first[200])      //
	p.Release(NewCNP(1, 0, 1)) // foreign
	_ = first[5]               // simply leaked
	mustPanic(t, "release of a queued packet", func() { p.Release(first[3]) })
	q.Reset()

	p.Reset()
	if p.Live() != 0 || p.FreeLen() != 2*poolChunk || p.Cap() != 2*poolChunk {
		t.Fatalf("after Reset live=%d free=%d cap=%d, want 0/%d/%d", p.Live(), p.FreeLen(), p.Cap(), 2*poolChunk, 2*poolChunk)
	}
	mustPanic(t, "push of a reclaimed packet", func() { q.Push(first[3]) })
	mustPanic(t, "release of a reclaimed packet", func() { p.Release(first[5]) })
	second := draw(2 * poolChunk)
	for i := range first {
		if second[i] != first[i] {
			t.Fatalf("draw %d after Reset is not the packet of draw %d before it", i, i)
		}
	}
	if p.Cap() != 2*poolChunk {
		t.Fatalf("pool grew to %d packets refilling what it owned", p.Cap())
	}
	if second[0].held != heldByNone || second[0].next != nil || second[0].Type != TypeCNP {
		t.Fatalf("reclaimed packet handed out dirty: %+v", second[0])
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestQueueMatchesSliceModel: random pushes and pops against a plain slice
// FIFO. The queue and the pool share the packet's one link, so the
// ownership hand-offs are checked along the way: a popped packet carries no
// link, and a packet cannot be released, or queued a second time, while a
// queue holds it.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := NewPool()
	var qs [3]Queue
	var model [3][]*Packet
	for step := 0; step < 50000; step++ {
		i := rng.Intn(len(qs))
		q, m := &qs[i], &model[i]
		// Phases of growth and of drain, so queues cross empty both ways.
		pushes := 4
		if (step/2000)%2 == 0 {
			pushes = 6
		}
		if rng.Intn(10) < pushes {
			pkt := pool.NewData(1, 0, 1, PSN(step), 100, false)
			q.Push(pkt)
			*m = append(*m, pkt)
			if rng.Intn(500) == 0 {
				mustPanic(t, "release of a queued packet", func() { pool.Release(pkt) })
				mustPanic(t, "second push of a queued packet", func() { qs[(i+1)%len(qs)].Push(pkt) })
			}
		} else {
			got := q.Pop()
			var want *Packet
			if len(*m) > 0 {
				want, *m = (*m)[0], (*m)[1:]
			}
			if got != want {
				t.Fatalf("step %d: Pop = %v, model %v", step, got, want)
			}
			if got != nil {
				if got.next != nil || got.held != heldByNone {
					t.Fatalf("step %d: popped packet still linked: next=%v held=%d", step, got.next, got.held)
				}
				pool.Release(got) // straight back into the pool, over the same link
			}
		}
		if q.Len() != len(*m) || q.Empty() != (len(*m) == 0) {
			t.Fatalf("step %d: Len/Empty = %d/%v with %d queued", step, q.Len(), q.Empty(), len(*m))
		}
	}
	queued := 0
	for i := range qs {
		queued += qs[i].Len()
	}
	if pool.Live() != queued {
		t.Fatalf("pool has %d packets checked out, queues hold %d", pool.Live(), queued)
	}
	mustPanic(t, "push of a pooled packet", func() {
		pkt := pool.NewCNP(1, 0, 1)
		pool.Release(pkt)
		qs[0].Push(pkt)
	})
	qs[0].Reset()
	if !qs[0].Empty() || qs[0].Len() != 0 || qs[0].Pop() != nil {
		t.Fatal("Reset left the queue non-empty")
	}
}
