package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide too often: %d/1000", same)
	}
}

// TestRNGSeedRestartsStream: reseeding a used generator in place yields
// exactly NewRNG's stream for the new seed.
func TestRNGSeedRestartsStream(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	r.Seed(42)
	want := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if got, w := r.Uint64(), want.Uint64(); got != w {
			t.Fatalf("draw %d after Seed(42) = %#x, NewRNG(42) gives %#x", i, got, w)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 = %v negative", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Errorf("exp mean = %v, want ~1.0", mean)
	}
}

func TestRNGIntnUniformity(t *testing.T) {
	r := NewRNG(17)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 0.05*n/buckets {
			t.Errorf("bucket %d count %d deviates >5%% from %d", b, c, n/buckets)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(19)
	for _, n := range []int{0, 1, 2, 5, 50} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	// Stable: pure function of its inputs.
	if DeriveSeed(1, "fig1/IRN", 0) != DeriveSeed(1, "fig1/IRN", 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	// Distinct across base seed, label, and trial.
	seen := map[uint64]string{}
	for _, base := range []uint64{0, 1, 42} {
		for _, label := range []string{"", "IRN", "IRN with PFC", "RoCE+PFC incast M=10 rep=0"} {
			for trial := 0; trial < 8; trial++ {
				s := DeriveSeed(base, label, trial)
				if s == 0 {
					t.Errorf("DeriveSeed(%d, %q, %d) = 0 (reserved for defaults)", base, label, trial)
				}
				key := string(rune(trial)) + label
				if prev, dup := seen[s]; dup {
					t.Errorf("seed collision: (%d,%q,%d) and %q -> %d", base, label, trial, prev, s)
				}
				seen[s] = key
			}
		}
	}
}

func TestRNGShuffleIsPermutationProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n)%64 + 1
		r := NewRNG(seed)
		s := make([]int, size)
		for i := range s {
			s[i] = i
		}
		r.Shuffle(size, func(i, j int) { s[i], s[j] = s[j], s[i] })
		seen := make([]bool, size)
		for _, v := range s {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
