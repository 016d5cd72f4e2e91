package fault

import (
	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// FabricLinks returns the indexes (Topology.Links() order) of the
// switch-to-switch links. Fault sweeps target these: a failed fabric link
// leaves ECMP alternatives in a fat-tree, whereas a failed host link simply
// detaches the host, which measures nothing about the transport.
func FabricLinks(t topo.Topology) []int {
	hosts := t.Hosts()
	var idx []int
	for i, l := range t.Links() {
		if int(l.A) >= hosts && int(l.B) >= hosts {
			idx = append(idx, i)
		}
	}
	return idx
}

// PeriodicFlaps builds a flap schedule over n fabric links of t, chosen
// deterministically from (seed). Each chosen link flaps count times: down
// at start + k*every for down, then back up. The schedule depends only on
// the arguments, so paired scenarios (IRN vs RoCE under the same seed) see
// identical failures; the shuffle is independent of n, so across a sweep
// over n each point's link set is a superset of the previous one —
// without nesting, a lucky draw at higher n could hit less-critical links
// and fake a non-monotone trend.
func PeriodicFlaps(t topo.Topology, n int, start sim.Time, every, down sim.Duration, count int, seed uint64) []Flap {
	var flaps []Flap
	for _, link := range sampleLinks(FabricLinks(t), n, seed, "fault/flap-links") {
		for k := 0; k < count; k++ {
			at := start.Add(sim.Duration(k) * every)
			flaps = append(flaps, Flap{Link: link, DownAt: at, UpAt: at.Add(down)})
		}
	}
	return flaps
}

// DegradeLinks builds a degraded-bandwidth phase over n fabric links of t,
// chosen deterministically from (seed), running each at factor of its
// configured rate from from to to. As with PeriodicFlaps, the link choice
// is independent of n, so sweeps over n use nested link sets.
func DegradeLinks(t topo.Topology, n int, from, to sim.Time, factor float64, seed uint64) []Degrade {
	var dgs []Degrade
	for _, link := range sampleLinks(FabricLinks(t), n, seed, "fault/degrade-links") {
		dgs = append(dgs, Degrade{Link: link, From: from, To: to, Factor: factor})
	}
	return dgs
}

// sampleLinks shuffles links in place under a seed derived from (seed,
// label) and returns the first n of them (all of them when n exceeds the
// count). The shuffle does not depend on n, so samples drawn for growing n
// under one label are nested.
func sampleLinks(links []int, n int, seed uint64, label string) []int {
	rng := sim.NewRNG(sim.DeriveSeed(seed, label, 0))
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	return links[:min(n, len(links))]
}
