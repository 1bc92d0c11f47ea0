// Package capflow stages dataflow traces that exhaust the engine's
// depth and fan caps. The contract under test (dataflow_test.go): cap
// exhaustion must surface as a conservative OriginUnknown — an
// "untraceable origin" diagnostic — never as a silently truncated,
// fully sanctioned origin set (a false negative).
package capflow

// use is a seed sink: seedtaint audits its argument.
func use(seed uint64) uint64 { return seed }

// junk is an unregistered helper: an unsanctioned origin.
func junk() uint64 { return 7 }

// deep chains more assignments than originDepthCap, so the trace is cut
// off before it reaches the sanctioned seed parameter.
func deep(seed uint64) uint64 {
	s0 := seed
	s1 := s0
	s2 := s1
	s3 := s2
	s4 := s3
	s5 := s4
	s6 := s5
	s7 := s6
	s8 := s7
	s9 := s8
	s10 := s9
	s11 := s10
	s12 := s11
	s13 := s12
	s14 := s13
	s15 := s14
	s16 := s15
	s17 := s16
	s18 := s17
	s19 := s18
	s20 := s19
	s21 := s20
	s22 := s21
	s23 := s22
	s24 := s23
	s25 := s24
	s26 := s25
	s27 := s26
	s28 := s27
	s29 := s28
	s30 := s29
	s31 := s30
	s32 := s31
	s33 := s32
	s34 := s33
	return use(s34)
}

// wide accumulates originFanCap sanctioned origins before the one
// unsanctioned assignment: before the cap fix, the final conservative
// marker was dropped and the audit passed on sanctioned origins alone.
// The assignments are compound (^=) so every definition reaches the
// sink — a plain reassignment chain would resolve to just its last
// definition.
func wide(seed uint64) uint64 {
	var x uint64
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= seed ^ seed
	x ^= junk()
	return use(x)
}
