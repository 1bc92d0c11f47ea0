// Package exhaustive is a spawnvet golden-test fixture for enum
// switch coverage.
package exhaustive

import "spawnsim/internal/sim/kernel"

// Kind is an iota enum; numKinds is a sentinel and not a member.
type Kind uint8

const (
	Alpha Kind = iota
	Beta
	Gamma
	numKinds
)

// Solo has a single member: not an enum for the analyzer (< 2 members).
type Solo uint8

const OnlySolo Solo = 0

func full(k Kind) int {
	switch k { // covers every member: clean
	case Alpha:
		return 1
	case Beta, Gamma:
		return 2
	}
	return 0
}

func defaulted(k Kind) int {
	switch k { // missing Gamma but has a panic default: clean
	case Alpha, Beta:
		return 1
	default:
		panic(kernel.Invariantf(0, "exhaustive", "unhandled Kind %d", k))
	}
}

func missing(k Kind) int {
	switch k { // missing Gamma, no default: flagged
	case Alpha:
		return 1
	case Beta:
		return 2
	}
	return 0
}

func next(k Kind) Kind { return (k + 1) % numKinds }

func sideEffectTag(k Kind) int {
	switch next(k) { // call tag, missing Beta and Gamma: flagged
	case Alpha:
		return 1
	}
	return 0
}

func single(s Solo) int {
	switch s { // Solo is not an enum: clean
	case OnlySolo:
		return 1
	}
	return 0
}

func suppressed(k Kind) int {
	//spawnvet:allow exhaustive fixture: remaining kinds are unreachable here
	switch k {
	case Alpha:
		return 1
	}
	return 0
}
