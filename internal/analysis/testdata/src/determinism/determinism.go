// Package determinism is a spawnvet golden-test fixture: each flagged
// site appears in testdata/determinism.golden; unflagged sites pin the
// analyzer's exemptions.
package determinism

import "math/rand"

// GlobalRand touches process-global generator state: flagged.
func GlobalRand() int {
	return rand.Intn(10)
}

// SeededRand draws from an explicitly seeded stream: not flagged.
func SeededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// SumValues observes map iteration order: flagged.
func SumValues(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// AllowedRange carries a suppression directive on the line above: not
// flagged.
func AllowedRange(m map[string]int) int {
	s := 0
	//spawnvet:allow determinism fixture: sum is order-insensitive
	for _, v := range m {
		s += v
	}
	return s
}

// CollectKeys hands the keys back in map order, unsorted: flagged.
func CollectKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// CountOnly never observes the order: not flagged.
func CountOnly(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
