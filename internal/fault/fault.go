// Package fault is the deterministic fault model the fabric injects link
// failures from: per-link random loss, per-link corruption (corrupted
// packets survive the wire but fail the receiving port's CRC check and are
// dropped there), scheduled link down/up events ("flaps") that kill the
// packets in flight and are honored by ECMP next-hop selection, and
// degraded-bandwidth phases.
//
// IRN's core claim is that efficient loss recovery makes RDMA robust
// without a lossless fabric; the extended paper's robustness appendix
// (arXiv:1806.08159) sweeps exactly these fault axes. Queue overflow is the
// only loss the congestion scenarios exercise — this package opens the
// regimes where losses are not self-inflicted.
//
// Determinism: a Spec is pure data inside a Scenario; the per-run Model
// compiled from it gives every directed link its own RNG stream derived
// from the scenario seed and the link index alone (sim.DeriveSeed), never
// from execution order. Serial and parallel fleet runs therefore stay
// bit-identical, and changing the fault rate on one link does not perturb
// the random choices of any other.
package fault

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/irnsim/irn/internal/sim"
)

// Spec describes the faults injected into one scenario run. The zero value
// injects nothing. Link indexes refer to topo.Topology.Links() order; every
// fault applies to both directions of the full-duplex link.
type Spec struct {
	// LossRate is the probability that a packet traversing any link is
	// silently lost in flight.
	LossRate float64
	// CorruptRate is the probability that a packet arrives with a payload
	// or header corruption: the receiving port's CRC check drops it. The
	// effect matches a loss but is counted separately, as switches do.
	CorruptRate float64
	// Flaps schedules link down/up transitions.
	Flaps []Flap
	// Degrades schedules reduced-bandwidth phases.
	Degrades []Degrade
	// Bursts schedules per-link loss-rate phases: the chaos-schedule DSL's
	// "per-phase loss". During a burst the link's random loss rate is the
	// burst's Rate; outside every burst it is the spec-wide LossRate.
	Bursts []LossBurst
}

// LossBurst runs one link's random loss at Rate from From to To (zero To =
// the rest of the run); the rate returns to the spec's base LossRate when
// the burst ends. A Rate of 0 suppresses the base loss for the window.
type LossBurst struct {
	Link int
	From sim.Time
	To   sim.Time
	Rate float64
}

// Flap takes one link down at DownAt and back up at UpAt (zero = the link
// stays down for the rest of the run). Packets in flight on a downed link
// are dropped; switches steer ECMP traffic away from downed ports while
// alternatives exist.
type Flap struct {
	Link   int // index into Topology.Links()
	DownAt sim.Time
	UpAt   sim.Time
}

// Degrade runs one link at Factor of its configured bandwidth from From to
// To (zero To = the rest of the run). Factor must be in (0, 1].
type Degrade struct {
	Link   int
	From   sim.Time
	To     sim.Time
	Factor float64
}

// Enabled reports whether the spec injects any fault at all.
func (s *Spec) Enabled() bool {
	return s.LossRate > 0 || s.CorruptRate > 0 || len(s.Flaps) > 0 || len(s.Degrades) > 0 || len(s.Bursts) > 0
}

// Validate checks rates, factors, link indexes and time ordering against
// the number of full-duplex links in the topology. Each kind of window is
// checked element by element first, then for overlaps on a link.
func (s *Spec) Validate(numLinks int) error {
	if !(s.LossRate >= 0 && s.LossRate <= 1) {
		return fmt.Errorf("fault: loss rate %v outside [0,1]", s.LossRate)
	}
	if !(s.CorruptRate >= 0 && s.CorruptRate <= 1) {
		return fmt.Errorf("fault: corrupt rate %v outside [0,1]", s.CorruptRate)
	}
	// One buffer, sized for the largest kind, holds each kind's windows in
	// turn.
	ws := make([]window, 0, max(len(s.Flaps), len(s.Degrades), len(s.Bursts)))
	for _, f := range s.Flaps {
		ws = append(ws, window{f.Link, f.DownAt, f.UpAt})
	}
	// Windows on the same link must not overlap: the compiled down state
	// is a single boolean per direction, so an earlier flap's Up would
	// raise a link a later flap still holds down. Touching windows (UpAt
	// == next DownAt) are fine — the schedule orders restoring transitions
	// before failing ones at a shared instant.
	if err := checkWindows("flap", ws, numLinks); err != nil {
		return err
	}
	ws = ws[:0]
	for _, d := range s.Degrades {
		if !(d.Factor > 0 && d.Factor <= 1) {
			return fmt.Errorf("fault: degrade factor %v outside (0,1]", d.Factor)
		}
		ws = append(ws, window{d.Link, d.From, d.To})
	}
	// Same single-value argument as for flaps: the effective rate is one
	// scalar per direction.
	if err := checkWindows("degrade", ws, numLinks); err != nil {
		return err
	}
	ws = ws[:0]
	for _, b := range s.Bursts {
		if !(b.Rate >= 0 && b.Rate <= 1) {
			return fmt.Errorf("fault: loss burst rate %v outside [0,1]", b.Rate)
		}
		ws = append(ws, window{b.Link, b.From, b.To})
	}
	// The effective loss rate is one scalar per direction, like the
	// degrade factor.
	return checkWindows("loss burst", ws, numLinks)
}

// window is one flap, degrade or loss burst as the checks see it: [from,
// to) on a link, to == 0 meaning the rest of the run.
type window struct {
	link     int
	from, to sim.Time
}

// checkWindows reports a window of one kind on a link outside [0,
// numLinks), before time zero or ending before it begins; then it sorts ws
// by (link, start) and reports two windows on one link that overlap, which
// some pair of neighbours does exactly when some pair does.
func checkWindows(kind string, ws []window, numLinks int) error {
	for _, w := range ws {
		switch {
		case w.link < 0 || w.link >= numLinks:
			return fmt.Errorf("fault: %s link %d outside [0,%d)", kind, w.link, numLinks)
		case w.from < 0 || w.to < 0 || w.to != 0 && w.to <= w.from:
			return fmt.Errorf("fault: %s on link %d spans [%d,%d), not a window from time 0 on", kind, w.link, w.from, w.to)
		}
	}
	slices.SortFunc(ws, func(a, b window) int {
		if a.link != b.link {
			return cmp.Compare(a.link, b.link)
		}
		return cmp.Compare(a.from, b.from)
	})
	for k := 1; k < len(ws); k++ {
		if p, w := ws[k-1], ws[k]; p.link == w.link && overlaps(p.from, p.to, w.from, w.to) {
			return fmt.Errorf("fault: overlapping %ss on link %d ([%d,%d) and [%d,%d))", kind, w.link, p.from, p.to, w.from, w.to)
		}
	}
	return nil
}

// overlaps reports whether the half-open windows [a, aEnd) and [b, bEnd)
// intersect, where a zero end means "until the end of the run".
func overlaps(a, aEnd, b, bEnd sim.Time) bool {
	aOpen := aEnd == 0
	bOpen := bEnd == 0
	return (aOpen || b < aEnd) && (bOpen || a < bEnd)
}

// ChangeKind discriminates scheduled link-state transitions.
type ChangeKind uint8

// Link-state transitions.
const (
	ChangeDown ChangeKind = iota // link fails; in-flight packets die
	ChangeUp                     // link restored
	ChangeRate                   // bandwidth scaled to Factor (1 restores)
	ChangeLoss                   // random loss rate set to Factor
)

// Change is one scheduled transition on a directed link.
type Change struct {
	At     sim.Time
	Kind   ChangeKind
	Factor float64 // ChangeRate: bandwidth scale; ChangeLoss: loss rate
}

// Link is the compiled fault state of one directed link. The fabric's
// output port consults it at packet-arrival time (loss, corruption) and
// applies its Sched entries as typed engine events.
type Link struct {
	Loss    float64
	Corrupt float64
	// Sched is the time-ordered transition list of the full-duplex link,
	// shared by both its directions and read-only. Equal times put
	// restoring transitions first (changeRank), then keep spec order
	// (flaps before degrades before bursts).
	Sched []Change

	rng sim.RNG
}

// DropLoss draws the in-flight loss decision for one packet at the link's
// base loss rate. It consumes randomness only when a loss rate is set.
func (l *Link) DropLoss() bool {
	return l.Loss > 0 && l.rng.Float64() < l.Loss
}

// Drop draws one loss decision at an explicit rate — the caller tracks the
// effective rate when ChangeLoss transitions move it off the base Loss. It
// consumes randomness only when the rate is positive, matching DropLoss,
// so phases with zero loss leave the RNG stream untouched.
func (l *Link) Drop(rate float64) bool {
	return rate > 0 && l.rng.Float64() < rate
}

// DropCorrupt draws the corruption decision for one packet. It consumes
// randomness only when a corruption rate is set.
func (l *Link) DropCorrupt() bool {
	return l.Corrupt > 0 && l.rng.Float64() < l.Corrupt
}

// StateAt evaluates the link's scheduled transitions statically: the down
// state and effective loss rate after every Sched entry with At <= t has
// applied. The fabric's tests check its event-driven port state against
// this reference: an arrival at exactly a transition's
// timestamp sees the post-transition state, matching the event path where
// the environment clock's rank orders fault transitions before any
// same-instant packet event.
func (l *Link) StateAt(t sim.Time) (down bool, loss float64) {
	loss = l.Loss
	for _, ch := range l.Sched {
		if ch.At > t {
			break
		}
		switch ch.Kind {
		case ChangeDown:
			down = true
		case ChangeUp:
			down = false
		case ChangeLoss:
			loss = ch.Factor
		}
	}
	return down, loss
}

// Model is a Spec compiled against a concrete topology and seed: one Link
// per direction of every full-duplex link that has any fault attached. All
// methods are nil-receiver safe (a nil *Model injects nothing), so the
// fabric config carries an optional *Model without branching everywhere.
type Model struct {
	dirs []*Link // index: 2*link for A→B, 2*link+1 for B→A
}

// New compiles a spec for a topology with numLinks full-duplex links. Each
// faulted direction gets an independent RNG stream derived from (seed,
// "fault/dir", direction index), so fault randomness is independent of
// execution order and of every other random stream in the run. The two
// directions of a link differ only in that stream: they share one
// transition list, and every link's list is carved, exactly sized, from
// one array.
func New(spec Spec, numLinks int, seed uint64) (*Model, error) {
	if err := spec.Validate(numLinks); err != nil {
		return nil, err
	}
	// Every transition, in spec order (flaps, degrades, bursts), handed to
	// put with its link: once to count each link's, once to fill them in.
	each := func(put func(link int, c Change)) {
		for _, f := range spec.Flaps {
			put(f.Link, Change{At: f.DownAt, Kind: ChangeDown})
			if f.UpAt != 0 {
				put(f.Link, Change{At: f.UpAt, Kind: ChangeUp})
			}
		}
		for _, dg := range spec.Degrades {
			put(dg.Link, Change{At: dg.From, Kind: ChangeRate, Factor: dg.Factor})
			if dg.To != 0 {
				put(dg.Link, Change{At: dg.To, Kind: ChangeRate, Factor: 1})
			}
		}
		for _, b := range spec.Bursts {
			put(b.Link, Change{At: b.From, Kind: ChangeLoss, Factor: b.Rate})
			if b.To != 0 {
				put(b.Link, Change{At: b.To, Kind: ChangeLoss, Factor: spec.LossRate})
			}
		}
	}
	// end[l] first counts link l's transitions, then holds where its list
	// starts and advances as the list fills, ending one past its last
	// entry.
	end := make([]int, numLinks)
	each(func(link int, _ Change) { end[link]++ })
	total := 0
	for l, n := range end {
		end[l] = total
		total += n
	}
	all := make([]Change, total)
	each(func(link int, c Change) {
		all[end[link]] = c
		end[link]++
	})

	// Time order, and at a shared instant restoring transitions (Up,
	// rate-restore, loss-restore) before failing ones (Down, degrade,
	// burst): touching windows then compose correctly — the outgoing
	// window closes before the incoming one opens — regardless of the
	// order the spec listed them in.
	base := spec.LossRate
	order := func(a, b Change) int {
		if a.At != b.At {
			return cmp.Compare(a.At, b.At)
		}
		return changeRank(a, base) - changeRank(b, base)
	}
	rated := spec.LossRate > 0 || spec.CorruptRate > 0
	// Both directions of every faulted link are carved from one array,
	// sized exactly, so appending never moves a Link a dir points to.
	faulted, prev := 0, 0
	for _, e := range end {
		if rated || e > prev {
			faulted++
		}
		prev = e
	}
	links := make([]Link, 0, 2*faulted)
	m := &Model{dirs: make([]*Link, 2*numLinks)}
	start := 0
	for l, e := range end {
		sched := all[start:e:e]
		start = e
		if len(sched) == 0 {
			if !rated {
				continue
			}
			sched = nil
		}
		slices.SortStableFunc(sched, order)
		for d := 2 * l; d < 2*l+2; d++ {
			links = append(links, Link{Loss: spec.LossRate, Corrupt: spec.CorruptRate, Sched: sched})
			lk := &links[len(links)-1]
			lk.rng.Seed(sim.DeriveSeed(seed, "fault/dir", d))
			m.dirs[d] = lk
		}
	}
	return m, nil
}

// changeRank orders transitions at equal timestamps: restorations first.
func changeRank(c Change, baseLoss float64) int {
	if c.Kind == ChangeUp || (c.Kind == ChangeRate && c.Factor == 1) ||
		(c.Kind == ChangeLoss && c.Factor == baseLoss) {
		return 0
	}
	return 1
}

// MustNew is New for specs known valid (presets, tests); it panics on a
// malformed spec, which is always a programming error there.
func MustNew(spec Spec, numLinks int, seed uint64) *Model {
	m, err := New(spec, numLinks, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Dirs returns the per-direction fault links, indexed 2*link (+1 for the
// reverse direction); entries are nil where no fault applies. Nil-safe.
func (m *Model) Dirs() []*Link {
	if m == nil {
		return nil
	}
	return m.dirs
}

// Dir returns the fault state of one direction of full-duplex link i, or
// nil when that direction is fault-free. Nil-safe.
func (m *Model) Dir(i int, reverse bool) *Link {
	if m == nil {
		return nil
	}
	d := 2 * i
	if reverse {
		d++
	}
	return m.dirs[d]
}
