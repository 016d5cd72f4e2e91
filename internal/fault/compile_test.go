package fault

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

// compileReference is New's transition compile as it was before the two
// directions of a link shared one list: each direction appends its own
// copy of every change in spec order, then stable-sorts it by (At,
// changeRank). It returns each direction's list, and whether the direction
// carries fault state at all.
func compileReference(spec Spec, numLinks int) (sched [][]Change, faulted []bool) {
	sched = make([][]Change, 2*numLinks)
	faulted = make([]bool, 2*numLinks)
	if spec.LossRate > 0 || spec.CorruptRate > 0 {
		for d := range faulted {
			faulted[d] = true
		}
	}
	add := func(link int, cs ...Change) {
		for _, d := range []int{2 * link, 2*link + 1} {
			faulted[d] = true
			sched[d] = append(sched[d], cs...)
		}
	}
	for _, f := range spec.Flaps {
		add(f.Link, Change{At: f.DownAt, Kind: ChangeDown})
		if f.UpAt != 0 {
			add(f.Link, Change{At: f.UpAt, Kind: ChangeUp})
		}
	}
	for _, dg := range spec.Degrades {
		add(dg.Link, Change{At: dg.From, Kind: ChangeRate, Factor: dg.Factor})
		if dg.To != 0 {
			add(dg.Link, Change{At: dg.To, Kind: ChangeRate, Factor: 1})
		}
	}
	for _, b := range spec.Bursts {
		add(b.Link, Change{At: b.From, Kind: ChangeLoss, Factor: b.Rate})
		if b.To != 0 {
			add(b.Link, Change{At: b.To, Kind: ChangeLoss, Factor: spec.LossRate})
		}
	}
	for _, s := range sched {
		sort.SliceStable(s, func(i, j int) bool {
			if s[i].At != s[j].At {
				return s[i].At < s[j].At
			}
			return changeRank(s[i], spec.LossRate) < changeRank(s[j], spec.LossRate)
		})
	}
	return sched, faulted
}

// validateSortSlice is Validate's overlap check as it was before it sorted
// with slices.SortFunc into one shared buffer: a fresh slice per kind,
// ordered by sort.Slice on (link, start), neighbours compared.
func validateSortSlice(s *Spec, numLinks int) bool {
	if !(s.LossRate >= 0 && s.LossRate <= 1) || !(s.CorruptRate >= 0 && s.CorruptRate <= 1) {
		return false
	}
	check := func(ws []window) bool {
		for _, w := range ws {
			if w.link < 0 || w.link >= numLinks || w.from < 0 || w.to < 0 || w.to != 0 && w.to <= w.from {
				return false
			}
		}
		sort.Slice(ws, func(a, b int) bool {
			if ws[a].link != ws[b].link {
				return ws[a].link < ws[b].link
			}
			return ws[a].from < ws[b].from
		})
		for k := 1; k < len(ws); k++ {
			if p, w := ws[k-1], ws[k]; p.link == w.link && overlaps(p.from, p.to, w.from, w.to) {
				return false
			}
		}
		return true
	}
	var flaps, degrades, bursts []window
	for _, f := range s.Flaps {
		flaps = append(flaps, window{f.Link, f.DownAt, f.UpAt})
	}
	for _, d := range s.Degrades {
		if !(d.Factor > 0 && d.Factor <= 1) {
			return false
		}
		degrades = append(degrades, window{d.Link, d.From, d.To})
	}
	for _, b := range s.Bursts {
		if !(b.Rate >= 0 && b.Rate <= 1) {
			return false
		}
		bursts = append(bursts, window{b.Link, b.From, b.To})
	}
	return check(flaps) && check(degrades) && check(bursts)
}

// checkAgainstReference compiles spec with New and compares every
// direction with the reference compile: fault state present or not, the
// same Loss and Corrupt, the same transition list, the same StateAt at
// every transition instant and between them, and both directions of a
// link reading one exactly-sized list.
func checkAgainstReference(t *testing.T, name string, spec Spec, numLinks int) {
	t.Helper()
	m, err := New(spec, numLinks, 1)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	want, faulted := compileReference(spec, numLinks)
	for d, l := range m.Dirs() {
		if (l != nil) != faulted[d] {
			t.Fatalf("%s: direction %d has fault state %v, reference %v", name, d, l != nil, faulted[d])
		}
		if l == nil {
			continue
		}
		if l.Loss != spec.LossRate || l.Corrupt != spec.CorruptRate || !reflect.DeepEqual(l.Sched, want[d]) {
			t.Fatalf("%s: direction %d: got %+v, want Sched %+v", name, d, l, want[d])
		}
		ref := &Link{Loss: spec.LossRate, Sched: want[d]}
		for _, ch := range want[d] {
			for _, at := range []sim.Time{ch.At - 1, ch.At, ch.At + 1} {
				gd, gl := l.StateAt(at)
				wd, wl := ref.StateAt(at)
				if gd != wd || gl != wl {
					t.Fatalf("%s: direction %d StateAt(%d) = (%v, %v), reference (%v, %v)", name, d, at, gd, gl, wd, wl)
				}
			}
		}
		if d%2 == 1 && len(l.Sched) > 0 {
			fwd := m.Dirs()[d-1].Sched
			if &fwd[0] != &l.Sched[0] || len(fwd) != len(l.Sched) {
				t.Fatalf("%s: the two directions of link %d hold separate lists", name, d/2)
			}
			if cap(l.Sched) != len(l.Sched) {
				t.Fatalf("%s: link %d's list has capacity %d for %d changes", name, d/2, cap(l.Sched), len(l.Sched))
			}
		}
	}
}

// TestCompileMatchesPerDirectionReference runs every built-in suite at
// seeds 1–3 on k=4 and k=6 through New and the per-direction reference.
func TestCompileMatchesPerDirectionReference(t *testing.T) {
	for _, k := range []int{4, 6} {
		tree := topo.NewFatTree(k)
		for _, s := range Suites() {
			for seed := uint64(1); seed <= 3; seed++ {
				spec := s.Build(tree, sim.Time(100*us), 48*us, 7, seed).MustCompile(tree)
				checkAgainstReference(t, fmt.Sprintf("%s k=%d seed %d", s.Name, k, seed), spec, len(tree.Links()))
			}
		}
	}
}

// TestCompileRandomSpecsMatchReference draws specs dense enough that
// windows touch, share starts, overlap and run open-ended, with burst
// rates that sometimes equal the base loss (a restoring rank). Validate
// must accept and reject exactly what the sort.Slice version did, and
// every accepted spec, and every long valid one, must compile to the
// reference's lists.
func TestCompileRandomSpecsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const links = 4
	window := func() (link int, from, to sim.Time) {
		link = rng.Intn(links)
		from = sim.Time(10 * rng.Intn(10))
		to = from + sim.Time(10*(1+rng.Intn(3)))
		switch rng.Intn(30) {
		case 0, 1:
			to = 0
		case 2:
			to = from
		case 3:
			link = -1
		}
		return
	}
	rates := []float64{0, 0.01, 0.25, 1}
	accepted, rejected := 0, 0
	for trial := 0; trial < 5000; trial++ {
		s := Spec{LossRate: rates[rng.Intn(2)]}
		if rng.Intn(4) == 0 {
			s.CorruptRate = 0.001
		}
		for n := rng.Intn(6); n > 0; n-- {
			l, from, to := window()
			s.Flaps = append(s.Flaps, Flap{Link: l, DownAt: from, UpAt: to})
		}
		for n := rng.Intn(4); n > 0; n-- {
			l, from, to := window()
			s.Degrades = append(s.Degrades, Degrade{Link: l, From: from, To: to, Factor: []float64{0.5, 1}[rng.Intn(2)]})
		}
		for n := rng.Intn(4); n > 0; n-- {
			l, from, to := window()
			s.Bursts = append(s.Bursts, LossBurst{Link: l, From: from, To: to, Rate: rates[rng.Intn(len(rates))]})
		}
		want := validateSortSlice(&s, links)
		if err := s.Validate(links); (err == nil) != want {
			t.Fatalf("Validate = %v, sort.Slice version accepts = %v, for %+v", err, want, s)
		}
		if !want {
			rejected++
			if _, err := New(s, links, 1); err == nil {
				t.Fatalf("New accepted an invalid spec %+v", s)
			}
			continue
		}
		accepted++
		checkAgainstReference(t, fmt.Sprintf("trial %d", trial), s, links)
	}
	if accepted < 500 || rejected < 500 {
		t.Errorf("lopsided sample: %d accepted, %d rejected", accepted, rejected)
	}

	// Valid specs with long lists: every link gets runs of back-to-back
	// windows of each kind on one grid, listed in shuffled order, so a
	// link's list holds dozens of transitions and many equal-time,
	// equal-rank pairs whose spec order the stable sort must keep.
	for trial := 0; trial < 300; trial++ {
		s := Spec{LossRate: rates[rng.Intn(2)]}
		for l := 0; l < links; l++ {
			for kind := 0; kind < 3; kind++ {
				at := sim.Time(10 * rng.Intn(3))
				for n := 4 + rng.Intn(8); n > 0; n-- {
					to := at + sim.Time(10*(1+rng.Intn(3)))
					switch kind {
					case 0:
						s.Flaps = append(s.Flaps, Flap{Link: l, DownAt: at, UpAt: to})
					case 1:
						s.Degrades = append(s.Degrades, Degrade{Link: l, From: at, To: to, Factor: []float64{0.5, 1}[rng.Intn(2)]})
					case 2:
						s.Bursts = append(s.Bursts, LossBurst{Link: l, From: at, To: to, Rate: rates[rng.Intn(len(rates))]})
					}
					at = to + sim.Time(10*rng.Intn(2)) // touching half the time
				}
			}
		}
		rng.Shuffle(len(s.Flaps), func(i, j int) { s.Flaps[i], s.Flaps[j] = s.Flaps[j], s.Flaps[i] })
		rng.Shuffle(len(s.Degrades), func(i, j int) { s.Degrades[i], s.Degrades[j] = s.Degrades[j], s.Degrades[i] })
		rng.Shuffle(len(s.Bursts), func(i, j int) { s.Bursts[i], s.Bursts[j] = s.Bursts[j], s.Bursts[i] })
		if !validateSortSlice(&s, links) {
			t.Fatalf("dense trial %d: the sort.Slice version rejects %+v", trial, s)
		}
		checkAgainstReference(t, fmt.Sprintf("dense trial %d", trial), s, links)
	}
}

// TestCompileAllocsOnChaosSpec pins New's allocation count on kv_chaos's
// schedule (flap-storm on k=6, 2100 cycles, 18 900 flaps): one array for
// every link's transitions instead of a list grown per direction.
func TestCompileAllocsOnChaosSpec(t *testing.T) {
	tree := topo.NewFatTree(6)
	s, _ := SuiteByName("flap-storm")
	spec := s.Build(tree, sim.Time(100*us), 400*us, 2100, 1).MustCompile(tree)
	if len(spec.Flaps) != 18_900 {
		t.Fatalf("%d flaps, want 18 900", len(spec.Flaps))
	}
	allocs := testing.AllocsPerRun(3, func() { MustNew(spec, len(tree.Links()), 1) })
	t.Logf("New: %.0f allocations", allocs)
	if allocs >= 1000 {
		t.Errorf("New made %.0f allocations on the kv_chaos spec, budget 1000", allocs)
	}
}
