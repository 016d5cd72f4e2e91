package fault

import (
	"math"
	"reflect"
	"testing"

	"github.com/irnsim/irn/internal/sim"
	"github.com/irnsim/irn/internal/topo"
)

func TestSpecEnabled(t *testing.T) {
	var s Spec
	if s.Enabled() {
		t.Error("zero spec enabled")
	}
	for _, mut := range []func(*Spec){
		func(s *Spec) { s.LossRate = 0.1 },
		func(s *Spec) { s.CorruptRate = 0.1 },
		func(s *Spec) { s.Flaps = []Flap{{Link: 0, DownAt: 1}} },
		func(s *Spec) { s.Degrades = []Degrade{{Link: 0, Factor: 0.5}} },
	} {
		s := Spec{}
		mut(&s)
		if !s.Enabled() {
			t.Errorf("spec %+v should be enabled", s)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{LossRate: -0.1},
		{LossRate: 1.5},
		{CorruptRate: 2},
		{Flaps: []Flap{{Link: 9}}},
		{Flaps: []Flap{{Link: -1}}},
		{Flaps: []Flap{{Link: 0, DownAt: 100, UpAt: 50}}},
		{Degrades: []Degrade{{Link: 0, Factor: 0}}},
		{Degrades: []Degrade{{Link: 0, Factor: 1.5}}},
		{Degrades: []Degrade{{Link: 12, Factor: 0.5}}},
		{Degrades: []Degrade{{Link: 0, Factor: 0.5, From: 100, To: 50}}},
		// NaN slips past a pair of < and > tests; a window before time
		// zero would schedule a transition in the past.
		{LossRate: math.NaN()},
		{Degrades: []Degrade{{Link: 0, Factor: math.NaN()}}},
		{Flaps: []Flap{{Link: 0, DownAt: -5}}},
		{Bursts: []LossBurst{{Link: 0, Rate: 0.5, From: -10, To: 10}}},
		// Overlapping windows on one link: the compiled down state and
		// rate are single values per direction, so overlaps would corrupt
		// them (an earlier Up raising a link a later flap holds down).
		{Flaps: []Flap{{Link: 0, DownAt: 100, UpAt: 900}, {Link: 0, DownAt: 500, UpAt: 1300}}},
		{Flaps: []Flap{{Link: 0, DownAt: 100}, {Link: 0, DownAt: 500, UpAt: 600}}},
		{Degrades: []Degrade{
			{Link: 0, From: 0, To: 200, Factor: 0.5},
			{Link: 0, From: 100, To: 300, Factor: 0.25},
		}},
		{Degrades: []Degrade{
			{Link: 0, From: 0, Factor: 0.5},
			{Link: 0, From: 100, To: 300, Factor: 0.25},
		}},
	}
	for i, s := range bad {
		if err := s.Validate(3); err == nil {
			t.Errorf("spec %d (%+v) should fail validation", i, s)
		}
		if _, err := New(s, 3, 1); err == nil {
			t.Errorf("New should reject spec %d", i)
		}
	}
	ok := Spec{
		LossRate:    0.01,
		CorruptRate: 0.001,
		Flaps:       []Flap{{Link: 1, DownAt: 10, UpAt: 20}, {Link: 2, DownAt: 5}},
		Degrades:    []Degrade{{Link: 0, From: 0, To: 100, Factor: 0.25}},
	}
	if err := ok.Validate(3); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	// Touching windows and same windows on different links are fine.
	touching := Spec{
		Flaps: []Flap{{Link: 0, DownAt: 100, UpAt: 200}, {Link: 0, DownAt: 200, UpAt: 300}},
		Degrades: []Degrade{
			{Link: 1, From: 0, To: 100, Factor: 0.5},
			{Link: 2, From: 0, To: 100, Factor: 0.5},
			{Link: 1, From: 100, Factor: 0.25},
		},
	}
	if err := touching.Validate(3); err != nil {
		t.Errorf("touching/disjoint windows rejected: %v", err)
	}
}

func TestModelCompilation(t *testing.T) {
	spec := Spec{
		Flaps:    []Flap{{Link: 1, DownAt: 200, UpAt: 300}},
		Degrades: []Degrade{{Link: 1, From: 100, To: 400, Factor: 0.5}},
	}
	m := MustNew(spec, 3, 7)
	dirs := m.Dirs()
	if len(dirs) != 6 {
		t.Fatalf("dirs = %d, want 6", len(dirs))
	}
	// No rates: only link 1's directions carry fault state.
	for _, d := range []int{0, 1, 4, 5} {
		if dirs[d] != nil {
			t.Errorf("dir %d should be nil", d)
		}
	}
	for _, rev := range []bool{false, true} {
		l := m.Dir(1, rev)
		if l == nil {
			t.Fatalf("link 1 rev=%v missing fault state", rev)
		}
		// Schedule must be time-sorted: degrade@100, down@200, up@300,
		// restore@400.
		want := []Change{
			{At: 100, Kind: ChangeRate, Factor: 0.5},
			{At: 200, Kind: ChangeDown},
			{At: 300, Kind: ChangeUp},
			{At: 400, Kind: ChangeRate, Factor: 1},
		}
		if !reflect.DeepEqual(l.Sched, want) {
			t.Errorf("rev=%v sched = %+v, want %+v", rev, l.Sched, want)
		}
	}
}

func TestTouchingWindowsComposeRegardlessOfSpecOrder(t *testing.T) {
	// Two flaps share the boundary instant t=200, listed out of time
	// order; the compiled schedule must apply the restoring Up before the
	// failing Down at t=200, or the link would pop up for an instant —
	// and with an open-ended second flap, cancel the outage entirely.
	spec := Spec{Flaps: []Flap{
		{Link: 0, DownAt: 200}, // down forever, listed first
		{Link: 0, DownAt: 100, UpAt: 200},
	}}
	m := MustNew(spec, 1, 1)
	want := []Change{
		{At: 100, Kind: ChangeDown},
		{At: 200, Kind: ChangeUp},
		{At: 200, Kind: ChangeDown},
	}
	if got := m.Dir(0, false).Sched; !reflect.DeepEqual(got, want) {
		t.Errorf("sched = %+v, want %+v", got, want)
	}

	// Same for rate phases: the restore-to-1 of the outgoing phase must
	// precede the incoming degrade at the shared instant.
	spec = Spec{Degrades: []Degrade{
		{Link: 0, From: 200, To: 300, Factor: 0.25},
		{Link: 0, From: 100, To: 200, Factor: 0.5},
	}}
	m = MustNew(spec, 1, 1)
	want = []Change{
		{At: 100, Kind: ChangeRate, Factor: 0.5},
		{At: 200, Kind: ChangeRate, Factor: 1},
		{At: 200, Kind: ChangeRate, Factor: 0.25},
		{At: 300, Kind: ChangeRate, Factor: 1},
	}
	if got := m.Dir(0, false).Sched; !reflect.DeepEqual(got, want) {
		t.Errorf("rate sched = %+v, want %+v", got, want)
	}
}

func TestModelRatesCoverAllLinks(t *testing.T) {
	m := MustNew(Spec{LossRate: 0.5}, 2, 1)
	for d, l := range m.Dirs() {
		if l == nil {
			t.Fatalf("dir %d has no fault state despite a global loss rate", d)
		}
		if l.Loss != 0.5 || l.Corrupt != 0 {
			t.Errorf("dir %d rates = %v/%v", d, l.Loss, l.Corrupt)
		}
	}
}

func TestLinkDrawsAreIndependentStreams(t *testing.T) {
	// Two directions of the same seed/spec must draw different streams,
	// and the same (seed, dir) must reproduce exactly.
	a := MustNew(Spec{LossRate: 0.5}, 1, 42)
	b := MustNew(Spec{LossRate: 0.5}, 1, 42)
	var fwdA, fwdB, revA []bool
	for i := 0; i < 64; i++ {
		fwdA = append(fwdA, a.Dir(0, false).DropLoss())
		fwdB = append(fwdB, b.Dir(0, false).DropLoss())
		revA = append(revA, a.Dir(0, true).DropLoss())
	}
	if !reflect.DeepEqual(fwdA, fwdB) {
		t.Error("same (seed, dir) produced different draws")
	}
	if reflect.DeepEqual(fwdA, revA) {
		t.Error("forward and reverse directions share a stream")
	}
}

func TestZeroRatesConsumeNoRandomness(t *testing.T) {
	m := MustNew(Spec{Flaps: []Flap{{Link: 0, DownAt: 1}}}, 1, 1)
	l := m.Dir(0, false)
	for i := 0; i < 8; i++ {
		if l.DropLoss() || l.DropCorrupt() {
			t.Fatal("zero-rate link dropped a packet")
		}
	}
}

func TestNilModelSafe(t *testing.T) {
	var m *Model
	if m.Dirs() != nil || m.Dir(0, false) != nil || m.Dir(3, true) != nil {
		t.Error("nil model must inject nothing")
	}
}

func TestFabricLinks(t *testing.T) {
	ft := topo.NewFatTree(4)
	links := ft.Links()
	fl := FabricLinks(ft)
	// k=4: 16 host links, 16 edge-agg, 16 agg-core → 32 fabric links.
	if len(fl) != 32 {
		t.Fatalf("fabric links = %d, want 32", len(fl))
	}
	hosts := ft.Hosts()
	for _, i := range fl {
		l := links[i]
		if int(l.A) < hosts || int(l.B) < hosts {
			t.Errorf("link %d (%d-%d) touches a host", i, l.A, l.B)
		}
	}
	if got := FabricLinks(topo.NewStar(4)); len(got) != 0 {
		t.Errorf("star has %d fabric links, want 0", len(got))
	}
}

func TestPeriodicFlapsDeterministicSchedule(t *testing.T) {
	ft := topo.NewFatTree(4)
	mk := func() []Flap {
		return PeriodicFlaps(ft, 3, sim.Time(100), 1000, 400, 2, 9)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PeriodicFlaps not deterministic")
	}
	if len(a) != 3*2 {
		t.Fatalf("flaps = %d, want 6", len(a))
	}
	links := map[int]int{}
	for _, f := range a {
		links[f.Link]++
		if f.UpAt != f.DownAt.Add(400) {
			t.Errorf("flap %+v has wrong down window", f)
		}
	}
	if len(links) != 3 {
		t.Errorf("flapped %d distinct links, want 3", len(links))
	}
	spec := Spec{Flaps: a}
	if err := spec.Validate(len(ft.Links())); err != nil {
		t.Errorf("generated schedule invalid: %v", err)
	}
	// Requesting more links than exist clamps.
	many := PeriodicFlaps(ft, 1000, sim.Time(0), 1000, 400, 1, 9)
	if len(many) != 32 {
		t.Errorf("clamped flaps = %d, want 32", len(many))
	}
}

func TestDegradeLinksSchedule(t *testing.T) {
	ft := topo.NewFatTree(4)
	dgs := DegradeLinks(ft, 4, sim.Time(50), sim.Time(500), 0.25, 3)
	if len(dgs) != 4 {
		t.Fatalf("degrades = %d, want 4", len(dgs))
	}
	for _, d := range dgs {
		if d.Factor != 0.25 || d.From != 50 || d.To != 500 {
			t.Errorf("degrade %+v wrong", d)
		}
	}
	spec := Spec{Degrades: dgs}
	if err := spec.Validate(len(ft.Links())); err != nil {
		t.Errorf("generated degrades invalid: %v", err)
	}
}
