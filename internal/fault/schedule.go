// Chaos schedules: a small composable DSL for sequenced failure scenarios.
//
// A Schedule is a named list of timed phases; each phase applies steps —
// Down (links held down), Blink (repeated short flaps), Slow (degraded
// bandwidth), Loss (raised random-loss rate) — to the links a topology-
// aware Selector picks (by pod, tier, node, explicit set, or a
// deterministic sample). Compile expands the phases against a concrete
// topology into a plain fault.Spec (flaps + degrades + loss bursts) and
// validates it, so everything downstream — the per-direction RNG streams,
// the sharded fault-event scheduling, the census invariants — treats a
// chaos schedule exactly like hand-written fault knobs.
//
// Compilation is deterministic: selectors iterate topology slices in their
// construction order and all sampling derives from explicit seeds via
// sim.DeriveSeed, never from map order or execution order.
package fault

import (
	"fmt"
	"sort"

	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// Selector picks full-duplex link indexes (Topology.Links() order) from a
// topology. Selectors compose: Sample wraps any selector; explicit sets
// union via LinkSet. A selector may return no links (e.g. a pod number the
// topology doesn't have) — the step then injects nothing.
type Selector func(t topo.Topology) []int

// nodeTable indexes a topology's nodes by ID.
func nodeTable(t topo.Topology) []topo.Node {
	var tab []topo.Node
	for _, n := range t.Nodes() {
		for int(n.ID) >= len(tab) {
			tab = append(tab, topo.Node{})
		}
		tab[n.ID] = n
	}
	return tab
}

// Fabric selects every switch-to-switch link (FabricLinks).
func Fabric() Selector {
	return func(t topo.Topology) []int { return FabricLinks(t) }
}

// HostLinks selects the host-to-edge access links of one pod, or of every
// pod when pod < 0. Taking these down detaches hosts — useful for drain
// scenarios, not for transport robustness sweeps.
func HostLinks(pod int) Selector {
	return func(t topo.Topology) []int {
		tab := nodeTable(t)
		var idx []int
		for i, l := range t.Links() {
			a, b := tab[l.A], tab[l.B]
			host, sw := a, b
			if host.Kind != topo.Host {
				host, sw = b, a
			}
			if host.Kind != topo.Host || sw.Kind != topo.EdgeSwitch {
				continue
			}
			if pod < 0 || host.Pod == pod {
				idx = append(idx, i)
			}
		}
		return idx
	}
}

// AggLinks selects the edge-to-aggregation links of one pod, or of every
// pod when pod < 0.
func AggLinks(pod int) Selector {
	return tierLinks(topo.EdgeSwitch, topo.AggSwitch, pod)
}

// Uplinks selects the aggregation-to-core links whose aggregation switch
// sits in pod, or every agg-core link when pod < 0. These are the links a
// pod-aware partitioner cuts, so chaos on them exercises the cross-shard
// fault path.
func Uplinks(pod int) Selector {
	return tierLinks(topo.AggSwitch, topo.CoreSwitch, pod)
}

// tierLinks selects links joining the two switch tiers, filtered by the
// pod of the lower-tier endpoint (lo) when pod >= 0.
func tierLinks(lo, hi topo.Kind, pod int) Selector {
	return func(t topo.Topology) []int {
		tab := nodeTable(t)
		var idx []int
		for i, l := range t.Links() {
			a, b := tab[l.A], tab[l.B]
			low, high := a, b
			if low.Kind != lo {
				low, high = b, a
			}
			if low.Kind != lo || high.Kind != hi {
				continue
			}
			if pod < 0 || low.Pod == pod {
				idx = append(idx, i)
			}
		}
		return idx
	}
}

// PodLinks selects every switch-to-switch link with an endpoint in pod:
// the pod's edge-agg mesh plus its core uplinks. Down on this set drains
// the pod from the fabric.
func PodLinks(pod int) Selector {
	return func(t topo.Topology) []int {
		tab := nodeTable(t)
		var idx []int
		for i, l := range t.Links() {
			a, b := tab[l.A], tab[l.B]
			if a.Kind == topo.Host || b.Kind == topo.Host {
				continue
			}
			if (a.Pod == pod && a.Kind != topo.CoreSwitch) || (b.Pod == pod && b.Kind != topo.CoreSwitch) {
				idx = append(idx, i)
			}
		}
		return idx
	}
}

// NodeLinks selects every link touching node id.
func NodeLinks(id int) Selector {
	return func(t topo.Topology) []int {
		var idx []int
		for i, l := range t.Links() {
			if int(l.A) == id || int(l.B) == id {
				idx = append(idx, i)
			}
		}
		return idx
	}
}

// LinkSet selects an explicit set of link indexes. Out-of-range indexes
// are kept and surface as a Compile error, not silently dropped — a typo
// in a hand-built schedule should fail loudly.
func LinkSet(idx ...int) Selector {
	set := append([]int(nil), idx...)
	return func(topo.Topology) []int { return append([]int(nil), set...) }
}

// Sample narrows sel to a deterministic n-link subsample: the shuffle is
// seeded from (seed, "chaos/sample") alone, so the same arguments pick the
// same links on every run and on every shard. The shuffle is independent
// of n — sweeps over n see nested link sets, like PeriodicFlaps.
func Sample(sel Selector, n int, seed uint64) Selector {
	return func(t topo.Topology) []int {
		links := sampleLinks(sel(t), n, seed, "chaos/sample")
		sort.Ints(links)
		return links
	}
}

// stepKind discriminates phase steps.
type stepKind uint8

const (
	stepDown stepKind = iota
	stepBlink
	stepSlow
	stepLoss
)

// Step is one fault action applied for the duration of its phase.
type Step struct {
	kind   stepKind
	sel    Selector
	times  int          // stepBlink: flaps per link in the phase
	down   sim.Duration // stepBlink: down time per flap
	factor float64      // stepSlow: bandwidth factor; stepLoss: loss rate
}

// Down holds the selected links down for the whole phase; they come back
// up when the phase ends (or stay down forever in an open-ended phase).
func Down(sel Selector) Step { return Step{kind: stepDown, sel: sel} }

// Blink flaps each selected link times times, evenly spaced across the
// phase, staying down for down each time. Requires a bounded phase and
// down <= phaseDur/times (touching windows are fine).
func Blink(sel Selector, times int, down sim.Duration) Step {
	return Step{kind: stepBlink, sel: sel, times: times, down: down}
}

// Slow runs the selected links at factor of their configured bandwidth
// for the phase. Factor must be in (0, 1].
func Slow(sel Selector, factor float64) Step {
	return Step{kind: stepSlow, sel: sel, factor: factor}
}

// Loss raises the selected links' random loss rate to rate for the phase;
// it returns to the schedule's base loss rate when the phase ends.
func Loss(sel Selector, rate float64) Step {
	return Step{kind: stepLoss, sel: sel, factor: rate}
}

// phase is one named, timed segment of a schedule.
type phase struct {
	name  string
	dur   sim.Duration // 0 = open-ended; only legal for the last phase
	steps []Step
}

// Schedule is a chaos schedule under construction: a start time, base
// loss/corruption rates, and a sequence of phases. Build it with the
// chainable At/Base/Phase/Quiet and turn it into a fault.Spec with
// Compile.
type Schedule struct {
	// Name labels the schedule in errors and reports.
	Name string

	start   sim.Time
	loss    float64
	corrupt float64
	phases  []phase
}

// NewSchedule starts an empty schedule.
func NewSchedule(name string) *Schedule { return &Schedule{Name: name} }

// At sets the simulated time the first phase begins.
func (s *Schedule) At(start sim.Time) *Schedule {
	s.start = start
	return s
}

// Base sets the spec-wide loss and corruption rates that apply outside
// any Loss step's phase.
func (s *Schedule) Base(loss, corrupt float64) *Schedule {
	s.loss, s.corrupt = loss, corrupt
	return s
}

// Phase appends a named phase of duration dur applying steps. A zero dur
// makes the phase open-ended (runs to the end of the simulation); only
// the last phase may be open-ended.
func (s *Schedule) Phase(name string, dur sim.Duration, steps ...Step) *Schedule {
	s.phases = append(s.phases, phase{name: name, dur: dur, steps: steps})
	return s
}

// Quiet appends a fault-free recovery phase of duration dur.
func (s *Schedule) Quiet(name string, dur sim.Duration) *Schedule {
	return s.Phase(name, dur)
}

// Horizon returns the time the last bounded phase ends: the minimum
// simulated horizon a run needs to see the whole schedule.
func (s *Schedule) Horizon() sim.Time {
	at := s.start
	for _, p := range s.phases {
		at = at.Add(p.dur)
	}
	return at
}

// PhaseWindow is one phase occurrence as an absolute half-open time
// window [From, To). A zero To marks an open-ended final phase.
type PhaseWindow struct {
	Name string
	From sim.Time
	To   sim.Time
}

// Windows lays the schedule's phases out as absolute time windows, in
// order — the availability reporters bucket per-request outcomes by the
// chaos phase the request was issued under.
func (s *Schedule) Windows() []PhaseWindow {
	out := make([]PhaseWindow, 0, len(s.phases))
	at := s.start
	for i, p := range s.phases {
		w := PhaseWindow{Name: p.name, From: at}
		if p.dur == 0 && i == len(s.phases)-1 {
			w.To = 0 // open-ended
		} else {
			w.To = at.Add(p.dur)
			at = w.To
		}
		out = append(out, w)
	}
	return out
}

// Compile expands the schedule against a concrete topology into a
// fault.Spec and validates it. Phases occupy consecutive half-open
// windows starting at the schedule's start time; within a phase, each
// step expands per selected link. Compile never returns an invalid spec:
// anything that would produce overlapping windows, out-of-range links, or
// out-of-range rates fails with an error instead.
func (s *Schedule) Compile(t topo.Topology) (Spec, error) {
	spec := Spec{LossRate: s.loss, CorruptRate: s.corrupt}
	numLinks := len(t.Links())
	at := s.start
	for pi := range s.phases {
		p := &s.phases[pi]
		if p.dur < 0 {
			return Spec{}, fmt.Errorf("fault: schedule %q phase %q has negative duration %v", s.Name, p.name, p.dur)
		}
		open := p.dur == 0
		if open && pi != len(s.phases)-1 {
			return Spec{}, fmt.Errorf("fault: schedule %q phase %q is open-ended but not last", s.Name, p.name)
		}
		end := sim.Time(0) // zero end = rest of the run, matching Spec windows
		if !open {
			end = at.Add(p.dur)
		}
		for si, st := range p.steps {
			if st.sel == nil {
				return Spec{}, fmt.Errorf("fault: schedule %q phase %q step %d has no selector", s.Name, p.name, si)
			}
			links := st.sel(t)
			switch st.kind {
			case stepDown:
				for _, l := range links {
					spec.Flaps = append(spec.Flaps, Flap{Link: l, DownAt: at, UpAt: end})
				}
			case stepBlink:
				if open {
					return Spec{}, fmt.Errorf("fault: schedule %q phase %q: Blink needs a bounded phase", s.Name, p.name)
				}
				if st.times < 1 {
					return Spec{}, fmt.Errorf("fault: schedule %q phase %q: Blink times %d < 1", s.Name, p.name, st.times)
				}
				if st.down <= 0 {
					return Spec{}, fmt.Errorf("fault: schedule %q phase %q: Blink down time %v <= 0", s.Name, p.name, st.down)
				}
				every := p.dur / sim.Duration(st.times)
				if st.down > every {
					return Spec{}, fmt.Errorf("fault: schedule %q phase %q: Blink down time %v exceeds its period %v",
						s.Name, p.name, st.down, every)
				}
				for _, l := range links {
					for k := 0; k < st.times; k++ {
						downAt := at.Add(sim.Duration(k) * every)
						spec.Flaps = append(spec.Flaps, Flap{Link: l, DownAt: downAt, UpAt: downAt.Add(st.down)})
					}
				}
			case stepSlow:
				for _, l := range links {
					spec.Degrades = append(spec.Degrades, Degrade{Link: l, From: at, To: end, Factor: st.factor})
				}
			case stepLoss:
				for _, l := range links {
					spec.Bursts = append(spec.Bursts, LossBurst{Link: l, From: at, To: end, Rate: st.factor})
				}
			}
		}
		if !open {
			at = end
		}
	}
	if err := spec.Validate(numLinks); err != nil {
		return Spec{}, fmt.Errorf("fault: schedule %q: %w", s.Name, err)
	}
	return spec, nil
}

// MustCompile is Compile for schedules known valid (presets, suites); it
// panics on a compile error, which is always a programming error there.
func (s *Schedule) MustCompile(t topo.Topology) Spec {
	spec, err := s.Compile(t)
	if err != nil {
		panic(err)
	}
	return spec
}
