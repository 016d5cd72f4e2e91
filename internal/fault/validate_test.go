package fault

import (
	"math/rand"
	"testing"

	"github.com/irnsim/irn/internal/sim"
)

// validateReference is Validate as it was before the overlap checks
// sorted each kind by (link, start): every window compared against all
// its predecessors in the spec. Only the accept/reject outcome is the
// reference; the two may name different overlapping pairs.
func validateReference(s *Spec, numLinks int) bool {
	if s.LossRate < 0 || s.LossRate > 1 || s.CorruptRate < 0 || s.CorruptRate > 1 {
		return false
	}
	for i, f := range s.Flaps {
		if f.Link < 0 || f.Link >= numLinks || (f.UpAt != 0 && f.UpAt <= f.DownAt) {
			return false
		}
		for _, g := range s.Flaps[:i] {
			if g.Link == f.Link && overlaps(f.DownAt, f.UpAt, g.DownAt, g.UpAt) {
				return false
			}
		}
	}
	for i, d := range s.Degrades {
		if d.Link < 0 || d.Link >= numLinks || d.Factor <= 0 || d.Factor > 1 || (d.To != 0 && d.To <= d.From) {
			return false
		}
		for _, g := range s.Degrades[:i] {
			if g.Link == d.Link && overlaps(d.From, d.To, g.From, g.To) {
				return false
			}
		}
	}
	for i, b := range s.Bursts {
		if b.Link < 0 || b.Link >= numLinks || b.Rate < 0 || b.Rate > 1 || (b.To != 0 && b.To <= b.From) {
			return false
		}
		for _, g := range s.Bursts[:i] {
			if g.Link == b.Link && overlaps(b.From, b.To, g.From, g.To) {
				return false
			}
		}
	}
	return true
}

// TestValidateMatchesPairwiseReference checks the sorted neighbour
// comparison accepts and rejects exactly what the pairwise one does, on
// random specs dense enough that about half overlap: touching windows,
// equal starts, open-ended windows anywhere in the spec, and the
// occasional malformed element.
func TestValidateMatchesPairwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const links = 3
	window := func() (link int, from, to sim.Time) {
		link = rng.Intn(links)
		from = sim.Time(10 * rng.Intn(12))
		to = from + sim.Time(10*(1+rng.Intn(3)))
		switch rng.Intn(40) {
		case 0, 1:
			to = 0 // open-ended
		case 2:
			to = from // empty: malformed unless from == 0 makes it open-ended
		case 3:
			link = links // out of range
		}
		return
	}
	accepted, rejected := 0, 0
	for trial := 0; trial < 5000; trial++ {
		var s Spec
		for n := rng.Intn(5); n > 0; n-- {
			l, from, to := window()
			s.Flaps = append(s.Flaps, Flap{Link: l, DownAt: from, UpAt: to})
		}
		for n := rng.Intn(5); n > 0; n-- {
			l, from, to := window()
			s.Degrades = append(s.Degrades, Degrade{Link: l, From: from, To: to, Factor: 0.5})
		}
		for n := rng.Intn(5); n > 0; n-- {
			l, from, to := window()
			s.Bursts = append(s.Bursts, LossBurst{Link: l, From: from, To: to, Rate: 0.1})
		}
		want := validateReference(&s, links)
		if err := s.Validate(links); (err == nil) != want {
			t.Fatalf("Validate = %v, pairwise reference accepts = %v, for %+v", err, want, s)
		}
		if want {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 500 || rejected < 500 {
		t.Errorf("lopsided sample: %d accepted, %d rejected", accepted, rejected)
	}
}
