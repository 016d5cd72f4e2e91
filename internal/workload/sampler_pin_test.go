package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"github.com/irnsim/irn/internal/sim"
)

// TestSamplerStreamsPinned pins the raw output of the flow generator's
// samplers: the seed-1 stream of 10 000 draws from sim.RNG.ExpFloat64
// (math.Log) and from each preset size distribution (logUniform's
// math.Exp and math.Log, Empirical's interpolation). Each stream's first
// values and an FNV-64a over all of it — float64 bits for the
// exponential, sizes for the distributions — must match checked-in
// constants. Go's Log and Exp are assembly on some architectures and pure
// Go on others (386 among them), and arm64 may fuse a multiply-add: an
// architecture or libm difference fails here, at the source, instead of
// surfacing as a moved run digest.
func TestSamplerStreamsPinned(t *testing.T) {
	const n = 10_000
	check := func(t *testing.T, draw func(*sim.RNG) uint64, first []uint64, sum uint64) {
		t.Helper()
		rng := sim.NewRNG(1)
		h := fnv.New64a()
		var got []uint64
		var b [8]byte
		for i := 0; i < n; i++ {
			v := draw(rng)
			if i < len(first) {
				got = append(got, v)
			}
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		if !slices.Equal(got, first) {
			t.Errorf("first draws %#x, want %#x", got, first)
		}
		if s := h.Sum64(); s != sum {
			t.Errorf("FNV-64a over %d draws %#x, want %#x", n, s, sum)
		}
	}

	t.Run("exp", func(t *testing.T) {
		check(t, func(r *sim.RNG) uint64 { return math.Float64bits(r.ExpFloat64()) },
			[]uint64{0x3ff36b8f97874d67, 0x3fe7842169c87864, 0x3feb5065a117d26e, 0x3fdfc64659354048},
			0x1be64032be3bc945)
	})
	for _, tc := range []struct {
		dist  SizeDist
		first []uint64
		sum   uint64
	}{
		{NewHeavyTailed(), []uint64{15759, 7951, 2139, 118}, 0x3f9037f614490ee6},
		{NewUniform(), []uint64{3663148, 2841965, 3083476, 2260979}, 0xb3a1ad1ad4d59ad5},
		{NewWebSearch(), []uint64{1029218, 77793, 155609, 48265}, 0xe18a8ce82f664610},
		{NewHadoop(), []uint64{11168, 1141, 1383, 584}, 0x31e82454ea542081},
	} {
		t.Run(tc.dist.Name(), func(t *testing.T) {
			check(t, func(r *sim.RNG) uint64 { return uint64(tc.dist.Sample(r)) }, tc.first, tc.sum)
		})
	}
}
