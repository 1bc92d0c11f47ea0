// Package seedtaint is a spawnvet golden-test fixture for seed
// provenance tracking.
package seedtaint

import (
	"math/rand"
	"time"
)

// shared is a package-level stream: flagged (cross-run seed reuse).
var shared = rand.New(rand.NewSource(1))

// plan mimics a faults.Plan-style config with a seed field.
type plan struct {
	Seed uint64
	Runs int
}

// deriveSeed is recognized structurally as a derivation helper (its
// name contains "seed"); its own arguments are never audited.
func deriveSeed(seed uint64, salt uint64) uint64 {
	return seed ^ salt*0x9e3779b97f4a7c15
}

// newStream has a seed-named parameter, so call sites are audited.
func newStream(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // param origin: clean
}

func good(spec plan) *rand.Rand {
	derived := deriveSeed(spec.Seed, 7) // deriver call origin: clean
	r := rand.New(rand.NewSource(int64(derived)))
	p := plan{Seed: deriveSeed(spec.Seed, 8)} // field key, deriver origin: clean
	p.Seed = spec.Seed + 1                    // field origin plus literal arithmetic: clean
	_ = p
	return r
}

func bad(spec plan, trial int) {
	_ = rand.NewSource(42)                    // literal re-seed: flagged
	_ = newStream(99)                         // literal at seed-named param: flagged
	_ = rand.NewSource(time.Now().UnixNano()) // ambient entropy: flagged
	_ = newStream(int64(trial))               // non-seed origin: flagged
	p := plan{Seed: uint64(trial) * 3}        // non-seed origin into field: flagged
	p.Seed = spec.Seed
	_ = p
}

// branchSplit pins the flow-insensitive trade: every definition of x
// counts at every use, so the ambient arm's definition taints the
// seed-armed use too. The false positive there is accepted.
func branchSplit(spec plan, fallback bool) {
	var x uint64
	if fallback {
		x = uint64(time.Now().UnixNano())
		_ = rand.NewSource(int64(x)) // ambient def reaches: flagged
	} else {
		x = deriveSeed(spec.Seed, 3)
		_ = rand.NewSource(int64(x)) // the ambient def counts too: flagged
	}
	_ = rand.NewSource(int64(x)) // join: the ambient arm reaches, flagged
}

func suppressed() *rand.Rand {
	//spawnvet:allow seedtaint fixture: fuzz corpus stream is intentionally unkeyed
	return rand.New(rand.NewSource(7))
}
