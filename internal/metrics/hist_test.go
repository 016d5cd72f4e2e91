package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/irnsim/irn/internal/sim"
)

func TestHistBoundsConstruction(t *testing.T) {
	if histBounds[0] != 1 {
		t.Fatalf("first bound = %d", histBounds[0])
	}
	if len(histBounds) != len(histReps) {
		t.Fatal("bounds/reps length mismatch")
	}
	for i := 1; i < len(histBounds); i++ {
		lo, hi := histBounds[i-1], histBounds[i]
		if hi <= lo {
			t.Fatalf("bounds not strictly increasing at %d: %d -> %d", i, lo, hi)
		}
		rep := histReps[i-1]
		if rep < lo || rep >= hi {
			t.Fatalf("rep %d outside bucket [%d, %d)", rep, lo, hi)
		}
		// The construction's error guarantee: every value in [lo, hi)
		// is within QuantileEpsilon relative error of the rep. Worst
		// case is the bucket's smallest value.
		if worst := float64(rep-lo) / float64(lo); worst > QuantileEpsilon {
			t.Fatalf("bucket [%d,%d) rep %d: rel err %v > ε", lo, hi, rep, worst)
		}
		far := float64(hi-1-rep) / float64(hi-1)
		if far > QuantileEpsilon {
			t.Fatalf("bucket [%d,%d) rep %d: far-end rel err %v > ε", lo, hi, rep, far)
		}
	}
	if last := histBounds[len(histBounds)-1]; last < 1<<61 {
		t.Fatalf("bounds stop too early: %d", last)
	}
	if len(histBounds) > 2000 {
		t.Fatalf("unexpectedly many buckets: %d", len(histBounds))
	}
}

func TestHistBucketIndex(t *testing.T) {
	for _, v := range []int64{1, 2, 26, 52, 53, 1000, 1 << 40, math.MaxInt64} {
		i := bucketIndex(v)
		if histBounds[i] > v {
			t.Errorf("v=%d landed below its bucket [%d,...)", v, histBounds[i])
		}
		if i+1 < len(histBounds) && histBounds[i+1] <= v {
			t.Errorf("v=%d landed before its bucket (next bound %d)", v, histBounds[i+1])
		}
	}
	if bucketIndex(0) != 0 || bucketIndex(-5) != 0 {
		t.Error("non-positive values must collapse into bucket 0")
	}
}

func TestHistQuantileAgainstSorted(t *testing.T) {
	// Randomized differential check on a log-uniform-ish distribution
	// spanning six decades.
	rng := sim.NewRNG(7)
	var h Histogram
	var vals []int64
	for i := 0; i < 20000; i++ {
		v := int64(math.Exp(rng.Float64()*14)) + 1 // 1 .. ~1.2e6
		h.Observe(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{0.1, 1, 10, 50, 90, 99, 99.9, 100} {
		want := float64(NearestRank(vals, p))
		got := float64(h.Quantile(p))
		if math.Abs(got-want)/want > QuantileEpsilon {
			t.Errorf("p%v: sketch %v vs exact %v", p, got, want)
		}
	}
	if h.Min() != vals[0] || h.Max() != vals[len(vals)-1] {
		t.Errorf("min/max not exact: %d/%d vs %d/%d", h.Min(), h.Max(), vals[0], vals[len(vals)-1])
	}
}

func TestHistMergeEmptyAndNil(t *testing.T) {
	var a, b Histogram
	a.Observe(100)
	a.Merge(nil)
	a.Merge(&b) // empty
	if a.N() != 1 || a.Quantile(50) != 100 {
		t.Errorf("merge with empty corrupted state: n=%d q50=%d", a.N(), a.Quantile(50))
	}
	b.Merge(&a)
	if b.N() != 1 || b.Min() != 100 || b.Max() != 100 {
		t.Errorf("merge into empty lost state: %+v", b)
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 5, 5, 90_000, 1 << 50} {
		h.Observe(v)
	}
	buf, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&h, &back) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", h, back)
	}

	// Empty histograms round-trip to empty (no counts allocation).
	var empty, emptyBack Histogram
	buf, err = json.Marshal(&empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &emptyBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&empty, &emptyBack) {
		t.Fatal("empty round trip diverged")
	}

	// A foreign bucket scheme must be rejected, not misread.
	if err := json.Unmarshal([]byte(`{"scheme":"geo2-v9","n":1}`), &back); err == nil {
		t.Fatal("want error for unknown bucket scheme")
	}
}
