package noise

import "math/rand"

// lfib is math/rand's additive lagged-Fibonacci generator (Mitchell and
// Reeds): x_n = x_{n−607} + x_{n−273} mod 2^64 over a 607-word state. The
// draws are stdlib's, bit for bit; only the seeding differs in how it is
// computed, not in what it computes.
//
// Stdlib seeds word i from three consecutive outputs of the Lehmer
// generator seedrand, x_{n+1} = 48271·x_n mod (2^31−1), XORed with a
// fixed "cooked" word. That is a chain of 1,841 dependent steps. But
// seedrand is purely multiplicative, so x_n = 48271^n·x_0 mod (2^31−1):
// word i needs only x_0 times three precomputed powers (seedPow), and
// the 1,821 products are independent. Each product of two 31-bit
// residues reduces by one Mersenne fold, with no division.
type lfib struct {
	tap, feed int
	vec       [lfibLen]int64
}

const (
	lfibLen = 607
	lfibTap = 273

	// seedMod is math/rand's seeding modulus, the Mersenne prime 2^31−1,
	// and seedMul its Lehmer multiplier.
	seedMod = 1<<31 - 1
	seedMul = 48271
	// seedBurn is how many seedrand steps stdlib discards before word 0.
	seedBurn = 20
	// seedZero is what stdlib seeds with in place of a seed ≡ 0.
	seedZero = 89482311
)

var (
	// seedPow[i][j] = 48271^(seedBurn + 3i + j + 1) mod (2^31−1): the
	// powers that take the reduced seed to the j-th seedrand output
	// folded into state word i.
	seedPow [lfibLen][3]uint32
	// cooked is math/rand's rngCooked table: state word i is cooked[i]
	// XOR the three seedrand outputs of word i.
	cooked [lfibLen]int64
)

func init() {
	x := uint64(1)
	for n := 0; n < seedBurn; n++ {
		x = mulMod(x, seedMul)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			x = mulMod(x, seedMul)
			seedPow[i][j] = uint32(x)
		}
	}
	cooked = cookedTable()
}

// cookedTable recovers rngCooked from a stdlib source rather than
// restating 607 constants. The first lfibLen outputs of a freshly seeded
// source fix its whole initial state: output k adds the state word at
// the feed position (333 − k) mod 607 to the word at the tap 606 − k,
// and that tap word is original for k < lfibTap and the output of step
// k − lfibTap after. XORing the seed's own seedrand words back out of
// that state leaves the cooked table.
func cookedTable() [lfibLen]int64 {
	const seed = 1
	ref := rand.NewSource(seed).(rand.Source64)
	var out, state [lfibLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	feedAt := func(k int) int { return (2*lfibLen - lfibTap - 1 - k) % lfibLen }
	for k := lfibTap; k < lfibLen; k++ {
		state[feedAt(k)] = out[k] - out[k-lfibTap]
	}
	for k := 0; k < lfibTap; k++ {
		state[feedAt(k)] = out[k] - state[lfibLen-1-k]
	}
	// Seeded while cooked is still all zero, g holds the seed's bare
	// seedrand words.
	var g lfib
	g.Seed(seed)
	var c [lfibLen]int64
	for i := range c {
		c[i] = state[i] ^ g.vec[i]
	}
	return c
}

// mulMod returns a·b mod (2^31−1) for a, b < 2^31. The product is below
// 2^62; since 2^31 ≡ 1, folding its high bits onto its low 31 bits keeps
// the residue and leaves a sum below 2·(2^31−1).
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&seedMod + p>>31
	if r >= seedMod {
		r -= seedMod
	}
	return r
}

// Seed sets the state math/rand's rngSource.Seed sets for seed.
func (g *lfib) Seed(seed int64) {
	g.tap = 0
	g.feed = lfibLen - lfibTap
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = seedZero
	}
	x0 := uint64(seed)
	for i := range g.vec {
		p := &seedPow[i]
		u := int64(mulMod(x0, uint64(p[0]))) << 40
		u ^= int64(mulMod(x0, uint64(p[1]))) << 20
		u ^= int64(mulMod(x0, uint64(p[2])))
		g.vec[i] = u ^ cooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *lfib) Int63() int64 { return int64(g.Uint64() & (1<<63 - 1)) }

// Uint64 returns a pseudo-random 64-bit value.
func (g *lfib) Uint64() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += lfibLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += lfibLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}
