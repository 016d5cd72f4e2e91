package topo

import (
	"slices"
	"testing"

	"github.com/irnsim/irn/internal/packet"
)

func TestFatTreeCountsMatchPaper(t *testing.T) {
	// §4.1: 54 servers, 45 6-port switches, 6 pods.
	cases := []struct{ k, hosts, switches int }{
		{6, 54, 45},
		{8, 128, 80},
		{10, 250, 125},
	}
	for _, c := range cases {
		ft := NewFatTree(c.k)
		if ft.Hosts() != c.hosts {
			t.Errorf("k=%d hosts = %d, want %d", c.k, ft.Hosts(), c.hosts)
		}
		switches := 0
		for _, n := range ft.Nodes() {
			if n.Kind != Host {
				switches++
			}
		}
		if switches != c.switches {
			t.Errorf("k=%d switches = %d, want %d", c.k, switches, c.switches)
		}
	}
}

func TestFatTreePortCounts(t *testing.T) {
	// Every switch in a k-ary fat-tree has exactly k ports.
	for _, k := range []int{4, 6} {
		ft := NewFatTree(k)
		degree := make(map[packet.NodeID]int)
		for _, l := range ft.Links() {
			degree[l.A]++
			degree[l.B]++
		}
		for _, n := range ft.Nodes() {
			want := k
			if n.Kind == Host {
				want = 1
			}
			if degree[n.ID] != want {
				t.Errorf("k=%d node %d (%v) degree = %d, want %d", k, n.ID, n.Kind, degree[n.ID], want)
			}
		}
	}
}

func TestFatTreeLinkCount(t *testing.T) {
	// Host links k³/4, edge-agg links k·(k/2)², agg-core links k·(k/2)².
	for _, k := range []int{4, 6, 8} {
		ft := NewFatTree(k)
		want := k*k*k/4 + 2*k*(k/2)*(k/2)
		if got := len(ft.Links()); got != want {
			t.Errorf("k=%d links = %d, want %d", k, got, want)
		}
	}
}

func TestFatTreeRoutesValidate(t *testing.T) {
	for _, k := range []int{4, 6} {
		if err := Validate(NewFatTree(k)); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestFatTreeECMPFanout(t *testing.T) {
	ft := NewFatTree(6)
	// Cross-pod traffic from a host's edge switch should offer k/2
	// aggregation choices; from an agg switch, k/2 core choices.
	src, dst := packet.NodeID(0), packet.NodeID(53) // pods 0 and 5
	edge := ft.NextHops(src, dst)
	if len(edge) != 1 {
		t.Fatalf("host fanout = %d, want 1", len(edge))
	}
	aggs := ft.NextHops(edge[0], dst)
	if len(aggs) != 3 {
		t.Errorf("edge fanout = %d, want 3", len(aggs))
	}
	cores := ft.NextHops(aggs[0], dst)
	if len(cores) != 3 {
		t.Errorf("agg fanout = %d, want 3", len(cores))
	}
	// Core switches have exactly one way down.
	down := ft.NextHops(cores[0], dst)
	if len(down) != 1 {
		t.Errorf("core fanout = %d, want 1", len(down))
	}
}

func TestFatTreePathHops(t *testing.T) {
	ft := NewFatTree(6)
	cases := []struct {
		src, dst packet.NodeID
		want     int
	}{
		{0, 0, 0},
		{0, 1, 2},   // same edge switch (hosts 0..2 share edge 0 of pod 0)
		{0, 3, 4},   // same pod, different edge
		{0, 53, 6},  // cross-pod
		{10, 45, 6}, // cross-pod
	}
	for _, c := range cases {
		if got := ft.PathHops(c.src, c.dst); got != c.want {
			t.Errorf("PathHops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
	if ft.LongestPathHops() != 6 {
		t.Errorf("LongestPathHops = %d", ft.LongestPathHops())
	}
}

func TestFatTreeRouteHopCountMatchesPathHops(t *testing.T) {
	ft := NewFatTree(6)
	pairs := [][2]packet.NodeID{{0, 1}, {0, 3}, {0, 53}, {20, 40}}
	for _, p := range pairs {
		cur := p[0]
		hops := 0
		for cur != p[1] {
			cur = ft.NextHops(cur, p[1])[0]
			hops++
			if hops > 10 {
				t.Fatalf("route %v loops", p)
			}
		}
		if want := ft.PathHops(p[0], p[1]); hops != want {
			t.Errorf("route %v took %d hops, PathHops says %d", p, hops, want)
		}
	}
}

func TestFatTreePanicsOnBadArity(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d should panic", k)
				}
			}()
			NewFatTree(k)
		}()
	}
}

func TestStar(t *testing.T) {
	s := NewStar(5)
	if s.Hosts() != 5 {
		t.Fatalf("hosts = %d", s.Hosts())
	}
	if len(s.Nodes()) != 6 || len(s.Links()) != 5 {
		t.Fatalf("nodes=%d links=%d", len(s.Nodes()), len(s.Links()))
	}
	if err := Validate(s); err != nil {
		t.Error(err)
	}
	if s.PathHops(0, 1) != 2 || s.PathHops(2, 2) != 0 {
		t.Error("PathHops wrong")
	}
}

func TestDumbbell(t *testing.T) {
	d := NewDumbbell(3)
	if d.Hosts() != 6 {
		t.Fatalf("hosts = %d", d.Hosts())
	}
	if err := Validate(d); err != nil {
		t.Error(err)
	}
	if d.PathHops(0, 1) != 2 {
		t.Error("same-side hops")
	}
	if d.PathHops(0, 5) != 3 {
		t.Error("cross hops")
	}
	if d.LongestPathHops() != 3 {
		t.Error("longest")
	}
}

func TestKindString(t *testing.T) {
	if Host.String() != "host" || CoreSwitch.String() != "core" {
		t.Error("Kind.String broken")
	}
}

// refNextHops is the arithmetic FatTree.NextHops once computed, one fresh
// slice per call: the reference the neighbor-list lookup must reproduce.
func refNextHops(t *FatTree, from, dst packet.NodeID) []packet.NodeID {
	hosts := packet.NodeID(t.hosts())
	half := t.half()
	dstPod := t.hostPod(dst)
	dstEdge := t.hostEdge(dst)
	switch {
	case from < hosts:
		return []packet.NodeID{t.edgeID(t.hostPod(from), t.hostEdge(from))}
	case from < hosts+packet.NodeID(t.K*half):
		e := int(from - hosts)
		pod, idx := e/half, e%half
		if pod == dstPod && idx == dstEdge {
			return []packet.NodeID{dst}
		}
		ups := make([]packet.NodeID, half)
		for a := 0; a < half; a++ {
			ups[a] = t.aggID(pod, a)
		}
		return ups
	case from < hosts+packet.NodeID(2*t.K*half):
		a := int(from-hosts) - t.K*half
		pod, idx := a/half, a%half
		if pod == dstPod {
			return []packet.NodeID{t.edgeID(pod, dstEdge)}
		}
		ups := make([]packet.NodeID, half)
		for i := 0; i < half; i++ {
			ups[i] = t.coreID(idx*half + i)
		}
		return ups
	default:
		c := int(from-hosts) - 2*t.K*half
		return []packet.NodeID{t.aggID(dstPod, c/half)}
	}
}

// TestFatTreeNextHopsMatchesArithmetic: for every (node, destination)
// pair, the neighbor-list answer is the arithmetic one, element for
// element and in order.
func TestFatTreeNextHopsMatchesArithmetic(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		ft := NewFatTree(k)
		for _, n := range ft.Nodes() {
			for dst := packet.NodeID(0); dst < packet.NodeID(ft.Hosts()); dst++ {
				got, want := ft.NextHops(n.ID, dst), refNextHops(ft, n.ID, dst)
				if !slices.Equal(got, want) {
					t.Fatalf("k=%d NextHops(%d, %d) = %v, want %v", k, n.ID, dst, got, want)
				}
			}
		}
	}
}

// TestFatTreeNextHopsZeroAllocs: NextHops answers from the topology's own
// neighbor lists, from every kind of node and for near and far
// destinations alike.
func TestFatTreeNextHopsZeroAllocs(t *testing.T) {
	ft := NewFatTree(8)
	nodes := packet.NodeID(len(ft.Nodes()))
	hosts := packet.NodeID(ft.Hosts())
	allocs := testing.AllocsPerRun(10, func() {
		for from := packet.NodeID(0); from < nodes; from++ {
			for dst := packet.NodeID(0); dst < hosts; dst += 7 {
				_ = ft.NextHops(from, dst)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("NextHops allocated %.0f times per sweep, want 0", allocs)
	}
}
