package sim

import "math/rand"

// NewRand returns a *rand.Rand that draws exactly what
// rand.New(rand.NewSource(seed)) draws, seeded in about a quarter of the
// time. Every seeded source of the simulator and the fault injectors is one.
func NewRand(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's additive lagged-Fibonacci generator (x[n] =
// x[n-273] + x[n-607] mod 2⁶⁴), state and draws alike; only Seed differs.
// math/rand fills each of the 607 state words from three draws of the LCG
// x ← 48271·x mod (2³¹−1), 1,841 dependent steps with a division each.
// Here the k-th draw is 48271^k·x₀, from a table of powers: the products
// are independent, and each is reduced by folding, as 2³¹ ≡ 1 mod 2³¹−1.
type source struct {
	tap, feed int
	vec       [lfgLen]int64
}

const (
	lfgLen  = 607
	lcgMod  = 1<<31 - 1
	lcgSkip = 20 // draws math/rand discards before the first word
)

// powers[i] are 48271^k mod 2³¹−1 for the three draws of state word i;
// cooked is math/rand's table of constants XORed into the seeded state.
var (
	powers [lfgLen][3]uint64
	cooked [lfgLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= lcgSkip+3*lfgLen; k++ {
		if p = p * 48271 % lcgMod; k > lcgSkip {
			powers[(k-lcgSkip-1)/3][(k-lcgSkip-1)%3] = p
		}
	}
	// Recover the table rather than vendor it: 607 draws replace each state
	// word once, so undoing them in reverse yields what Seed(1) built: the
	// table XOR the words Seed(1) left in cooked while it was still zero.
	var s source
	s.Seed(1)
	cooked = s.vec
	ref := rand.NewSource(1).(rand.Source64)
	for range lfgLen {
		s.Uint64()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range lfgLen {
		s.vec[s.feed] -= s.vec[s.tap]
		cooked[s.feed] ^= s.vec[s.feed]
		s.tap, s.feed = (s.tap+1)%lfgLen, (s.feed+1)%lfgLen
	}
}

// mulMod returns a·x mod 2³¹−1 for a, x in [1, 2³¹−2]. Two folds leave at
// most 2³¹−1, which is ≡ 0 and so never reached: the modulus is prime.
func mulMod(a, x uint64) uint64 {
	t := a * x
	t = t&lcgMod + t>>31
	return t&lcgMod + t>>31
}

// Seed sets the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, lfgLen-273
	if seed %= lcgMod; seed < 0 {
		seed += lcgMod
	} else if seed == 0 {
		seed = 89482311 // math/rand's stand-in for 0
	}
	x := uint64(seed)
	for i := range s.vec {
		w := &powers[i]
		s.vec[i] = int64(mulMod(w[0], x)<<40^mulMod(w[1], x)<<20^mulMod(w[2], x)) ^ cooked[i]
	}
}

// Uint64 returns the next draw.
func (s *source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += lfgLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += lfgLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw without its top bit.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
