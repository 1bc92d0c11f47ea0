package inputs

import "math/rand"

// math/rand's source is the additive lagged-Fibonacci generator
// o[k] = o[k-streamLag] + o[k-streamTap] (mod 2^64): each Uint64 adds
// the value streamTap places back to the one streamLag places back.
const (
	streamLag = 607
	streamTap = 273
)

// source yields exactly the stream of rand.NewSource(seed), a block of
// streamLag values at a time. Seeding draws math/rand's own first
// streamLag Uint64 values, so its seeding and cooked table are not
// copied here; each later block follows from the one before by the
// same recurrence math/rand's source runs one value at a time, so the
// two streams are equal value for value.
//
// Its Float64, Intn, Int31n and Int63n are copies of rand.Rand's, so a
// generator's hot loop may call them and Int63 directly, and
// rand.New(src) gives the rest of rand.Rand's methods (NormFloat64,
// Perm, ...) on the same stream.
type source struct {
	block [streamLag]uint64
	taken uint // values of block already returned
}

// newSource returns the stream of rand.NewSource(seed).
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at rand.NewSource(seed)'s first value.
func (s *source) Seed(seed int64) {
	rs := rand.NewSource(seed).(rand.Source64)
	for i := range s.block {
		s.block[i] = rs.Uint64()
	}
	s.taken = 0
}

// refill replaces the block o[k..k+streamLag) with o[k+streamLag..
// k+2·streamLag), the first of which is being taken: the first
// streamTap new values add old ones, the rest add new ones written
// earlier in this pass. It stays out of line so that Int63 inlines into
// the hot loops.
//
//go:noinline
func (s *source) refill() {
	b := &s.block
	for j := 0; j < streamTap; j++ {
		b[j] += b[j+streamLag-streamTap]
	}
	for j := streamTap; j < streamLag; j++ {
		b[j] += b[j-streamTap]
	}
	s.taken = 1
}

// Uint64 returns the next value of the stream.
func (s *source) Uint64() uint64 {
	s.taken++
	if s.taken > streamLag {
		s.refill()
	}
	return s.block[s.taken-1]
}

// Int63 returns the next value with its top bit cleared. It repeats
// Uint64's body: calling Uint64 would push it over the inlining budget.
func (s *source) Int63() int64 {
	s.taken++
	if s.taken > streamLag {
		s.refill()
	}
	return int64(s.block[s.taken-1] &^ (1 << 63))
}

// Float64 is rand.Rand's Float64: it redraws the values that round to 1.
func (s *source) Float64() float64 {
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// Intn is rand.Rand's Intn, through Int31n below 1<<31 and Int63n
// above.
func (s *source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.Int31n(int32(n)))
	}
	return int(s.Int63n(int64(n)))
}

// Int31n is rand.Rand's Int31n, with its Int31 written out: a mask for
// a power of two, otherwise rejection of the top partial range and a
// modulus.
func (s *source) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return int32(s.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// Int63n is rand.Rand's Int63n.
func (s *source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}
