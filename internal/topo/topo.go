// Package topo builds the network topologies used by the evaluation: the
// paper's three-tier fat-trees (k=6 → 54 hosts, k=8 → 128, k=10 → 250),
// plus small star and dumbbell fabrics for unit tests and examples.
//
// A topology is a set of nodes (hosts and switches), a set of full-duplex
// links, and a next-hop relation. The fat-tree next-hop relation returns
// every equal-cost choice; the fabric layer picks one per flow via ECMP
// hashing (§4.1: "We use ECMP for load-balancing").
package topo

import (
	"fmt"

	"github.com/irnsim/irn/internal/packet"
)

// Kind classifies a node.
type Kind uint8

// Node kinds.
const (
	Host Kind = iota
	EdgeSwitch
	AggSwitch
	CoreSwitch
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case EdgeSwitch:
		return "edge"
	case AggSwitch:
		return "agg"
	case CoreSwitch:
		return "core"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node describes one topology node.
type Node struct {
	ID   packet.NodeID
	Kind Kind
	Pod  int // pod number for edge/agg switches and hosts; -1 for core
	Idx  int // index within its tier (and pod, where applicable)
}

// Link is a full-duplex link between two nodes. The fabric instantiates
// one unidirectional queue per direction.
type Link struct {
	A, B packet.NodeID
}

// Topology is the contract the fabric builds a network from.
type Topology interface {
	// Hosts returns the number of hosts; hosts occupy IDs [0, Hosts).
	Hosts() int
	// Nodes lists every node, hosts first.
	Nodes() []Node
	// Links lists every full-duplex link exactly once.
	Links() []Link
	// NextHops returns the equal-cost neighbor choices at node from for
	// traffic destined to host dst. Panics if from is a host other than
	// dst's attachment path start (hosts have exactly one uplink). The
	// result may be shared with the topology and with other calls:
	// callers must not modify it.
	NextHops(from, dst packet.NodeID) []packet.NodeID
	// LongestPathHops returns the maximum number of links on any
	// host-to-host shortest path (6 for a three-tier fat-tree).
	LongestPathHops() int
	// PathHops returns the number of links on the shortest path between
	// two hosts.
	PathHops(src, dst packet.NodeID) int
}

// FatTree is a standard k-ary three-tier fat-tree: k pods each containing
// k/2 edge and k/2 aggregation switches, (k/2)² core switches, k³/4 hosts,
// and full bisection bandwidth. k must be even and ≥ 2.
//
// Node ID layout: hosts [0, k³/4), then edge switches, aggregation
// switches, and core switches.
type FatTree struct {
	K     int
	nodes []Node
	links []Link
	// adj holds every node's neighbors in NextHops order: a host's one
	// edge switch at adj[h], then each switch's k neighbors from
	// hosts+(id-hosts)·k — an edge or aggregation switch's k/2 up
	// neighbors then its k/2 down neighbors, a core switch's one
	// aggregation switch per pod.
	adj []packet.NodeID
}

// NewFatTree constructs the fat-tree. The paper's default scenario uses
// k=6: "a 54-server three-tiered fat-tree topology, connected by a fabric
// with full bisection-bandwidth constructed from 45 6-port switches
// organized into 6 pods."
func NewFatTree(k int) *FatTree {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree arity %d must be even and >= 2", k))
	}
	t := &FatTree{K: k}
	half := k / 2
	hosts := k * k * k / 4
	edges := k * half
	aggs := k * half
	cores := half * half

	// Hosts.
	for h := 0; h < hosts; h++ {
		pod := h / (half * half)
		t.nodes = append(t.nodes, Node{ID: packet.NodeID(h), Kind: Host, Pod: pod, Idx: h})
	}
	// Edge switches.
	for e := 0; e < edges; e++ {
		t.nodes = append(t.nodes, Node{ID: t.edgeID(e/half, e%half), Kind: EdgeSwitch, Pod: e / half, Idx: e % half})
	}
	// Aggregation switches.
	for a := 0; a < aggs; a++ {
		t.nodes = append(t.nodes, Node{ID: t.aggID(a/half, a%half), Kind: AggSwitch, Pod: a / half, Idx: a % half})
	}
	// Core switches.
	for c := 0; c < cores; c++ {
		t.nodes = append(t.nodes, Node{ID: t.coreID(c), Kind: CoreSwitch, Pod: -1, Idx: c})
	}

	t.adj = make([]packet.NodeID, 0, hosts+(edges+aggs+cores)*k)
	for h := 0; h < hosts; h++ {
		t.adj = append(t.adj, t.edgeID(t.hostPod(packet.NodeID(h)), t.hostEdge(packet.NodeID(h))))
	}
	for e := 0; e < edges; e++ {
		pod, idx := e/half, e%half
		for a := 0; a < half; a++ {
			t.adj = append(t.adj, t.aggID(pod, a))
		}
		for h := 0; h < half; h++ {
			t.adj = append(t.adj, packet.NodeID((pod*half+idx)*half+h))
		}
	}
	for a := 0; a < aggs; a++ {
		pod, idx := a/half, a%half
		for i := 0; i < half; i++ {
			t.adj = append(t.adj, t.coreID(idx*half+i))
		}
		for e := 0; e < half; e++ {
			t.adj = append(t.adj, t.edgeID(pod, e))
		}
	}
	for c := 0; c < cores; c++ {
		for pod := 0; pod < k; pod++ {
			t.adj = append(t.adj, t.aggID(pod, c/half))
		}
	}

	// Host ↔ edge links.
	for h := 0; h < hosts; h++ {
		pod := h / (half * half)
		e := (h / half) % half
		t.links = append(t.links, Link{A: packet.NodeID(h), B: t.edgeID(pod, e)})
	}
	// Edge ↔ agg links (full mesh within a pod).
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				t.links = append(t.links, Link{A: t.edgeID(pod, e), B: t.aggID(pod, a)})
			}
		}
	}
	// Agg ↔ core links: agg switch with in-pod index a connects to core
	// switches [a*half, (a+1)*half).
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			for i := 0; i < half; i++ {
				t.links = append(t.links, Link{A: t.aggID(pod, a), B: t.coreID(a*half + i)})
			}
		}
	}
	return t
}

func (t *FatTree) half() int  { return t.K / 2 }
func (t *FatTree) hosts() int { return t.K * t.K * t.K / 4 }

func (t *FatTree) edgeID(pod, idx int) packet.NodeID {
	return packet.NodeID(t.hosts() + pod*t.half() + idx)
}

func (t *FatTree) aggID(pod, idx int) packet.NodeID {
	return packet.NodeID(t.hosts() + t.K*t.half() + pod*t.half() + idx)
}

func (t *FatTree) coreID(idx int) packet.NodeID {
	return packet.NodeID(t.hosts() + 2*t.K*t.half() + idx)
}

// hostPod returns the pod a host belongs to.
func (t *FatTree) hostPod(h packet.NodeID) int { return int(h) / (t.half() * t.half()) }

// hostEdge returns the in-pod edge switch index a host attaches to.
func (t *FatTree) hostEdge(h packet.NodeID) int { return (int(h) / t.half()) % t.half() }

// Hosts implements Topology.
func (t *FatTree) Hosts() int { return t.hosts() }

// Nodes implements Topology.
func (t *FatTree) Nodes() []Node { return t.nodes }

// Links implements Topology.
func (t *FatTree) Links() []Link { return t.links }

// FatTreeLongestPathHops is the longest host-to-host shortest path in any
// three-tier fat-tree (host-edge-agg-core-agg-edge-host), independent of
// arity. Exported so BDP arithmetic can run before a topology is built —
// the experiment worker sizes buffers (part of the fabric cache key)
// without constructing the fat-tree it may be about to reuse.
const FatTreeLongestPathHops = 6

// LongestPathHops implements Topology.
func (t *FatTree) LongestPathHops() int { return FatTreeLongestPathHops }

// PathHops implements Topology.
func (t *FatTree) PathHops(src, dst packet.NodeID) int {
	if src == dst {
		return 0
	}
	if t.hostPod(src) == t.hostPod(dst) {
		if t.hostEdge(src) == t.hostEdge(dst) {
			return 2 // host-edge-host
		}
		return 4 // host-edge-agg-edge-host
	}
	return 6
}

// NextHops implements Topology. The relation is computed arithmetically —
// fat-trees are regular, so no routing tables are needed — and answered
// from the node's neighbor list: up neighbors first, then down neighbors,
// each in the order NextHops returns them. Every set it returns is a
// subslice of that list, so a call allocates nothing.
func (t *FatTree) NextHops(from, dst packet.NodeID) []packet.NodeID {
	hosts := packet.NodeID(t.hosts())
	if from < hosts {
		// Host: single uplink.
		return t.adj[from : from+1 : from+1]
	}
	half := t.half()
	s := int(from - hosts)
	nb := t.adj[int(hosts)+s*t.K : int(hosts)+(s+1)*t.K]
	dstPod := t.hostPod(dst)
	var down int
	switch {
	case s < t.K*half:
		// Edge switch: directly attached hosts below, aggregation above.
		if s != int(dst)/half {
			return nb[:half:half]
		}
		down = int(dst) % half
	case s < 2*t.K*half:
		// Aggregation switch: the pod's edge switches below, its core
		// group above.
		if (s-t.K*half)/half != dstPod {
			return nb[:half:half]
		}
		down = t.hostEdge(dst)
	default:
		// Core switch c connects to agg with in-pod index c/half in
		// every pod; it has no up neighbors.
		return nb[dstPod : dstPod+1 : dstPod+1]
	}
	return nb[half+down : half+down+1 : half+down+1]
}

var _ Topology = (*FatTree)(nil)
