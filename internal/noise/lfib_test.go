package noise

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's reduction mod 2^31−1 has a
// boundary: zero (replaced by a fixed seed), the modulus and its
// neighbours, powers of two past it, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, seedZero, -seedZero,
	seedMod - 1, seedMod, seedMod + 1, -(seedMod - 1), -seedMod, -(seedMod + 1),
	1 << 31, -(1 << 31), 1 << 32, 1 << 62, -(1 << 62),
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// matchSeeds returns the edge seeds plus n seeds spread over all of int64.
func matchSeeds(n int) []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(2012))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// checkMatchesMathRand draws n values from src and from a fresh
// math/rand source of seed, cycling NormFloat64, Float64 and Int63 when
// mixed is set and NormFloat64 alone otherwise, and reports the first
// difference.
func checkMatchesMathRand(t *testing.T, src *Source, seed int64, n int, mixed bool) {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		op := 0
		if mixed {
			op = i % 3
		}
		switch op {
		case 0:
			if g, w := src.rng.NormFloat64(), ref.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, math/rand %v", seed, i, g, w)
			}
		case 1:
			if g, w := src.rng.Float64(), ref.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, g, w)
			}
		case 2:
			if g, w := src.rng.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// TestSourceMatchesMathRand: over 2,000 spread seeds plus the edge seeds,
// a fresh Source and one re-seeded in place after drawing from another
// seed both draw math/rand's NormFloat64 stream bit for bit.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	held := NewSource(7)
	for _, seed := range matchSeeds(2000) {
		checkMatchesMathRand(t, NewSource(seed), seed, draws, false)
		held.Seed(seed)
		checkMatchesMathRand(t, held, seed, draws, false)
	}
}

// TestSeedSpace pins math/rand's seed reduction: seeds s and s + (2^31−1)
// give the same stream, and 0 gives the stream of its stand-in seed. A
// seed space wider than 2^31−1 streams needs a different generator.
func TestSeedSpace(t *testing.T) {
	for _, s := range []int64{1, 42, -5, seedMod - 1, 1 << 40} {
		a, b := NewSource(s), NewSource(s+seedMod)
		for i := 0; i < 100; i++ {
			if x, y := a.Gaussian(0, 1), b.Gaussian(0, 1); x != y {
				t.Fatalf("seeds %d and %d differ at draw %d: %v vs %v", s, s+seedMod, i, x, y)
			}
		}
	}
	a, b := NewSource(0), NewSource(seedZero)
	if a.gen.vec != b.gen.vec {
		t.Fatal("seed 0 does not seed as its stand-in")
	}
	if c := NewSource(1); c.gen.vec == NewSource(2).gen.vec {
		t.Fatal("seeds 1 and 2 share a state")
	}
}

func TestSeedZeroAlloc(t *testing.T) {
	s := NewSource(1)
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		s.Seed(seed)
	}); allocs != 0 {
		t.Fatalf("Seed: %v allocs/op, want 0", allocs)
	}
}

// FuzzSourceMatchesMathRand: for any seed and up to 2,000 draws, a fresh
// Source and a Source re-seeded in place draw what math/rand does, across
// NormFloat64, Float64 and Int63.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, s := range edgeSeeds {
		f.Add(s, uint16(3))
	}
	f.Add(int64(42), uint16(2000))
	held := NewSource(3)
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		draws := int(n) % 2001
		checkMatchesMathRand(t, NewSource(seed), seed, draws, true)
		held.Seed(seed)
		checkMatchesMathRand(t, held, seed, draws, true)
	})
}

func BenchmarkNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSource(int64(i))
	}
}

func BenchmarkSourceSeed(b *testing.B) {
	s := NewSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

func BenchmarkMathRandNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rand.New(rand.NewSource(int64(i)))
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		s.Gaussian(0, 1)
	}
}
