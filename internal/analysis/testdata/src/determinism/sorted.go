package determinism

import (
	"slices"
	"sort"
)

// SortedKeys is the canonical sort prelude — the statement right after
// the loop sorts the collected keys: not flagged.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SortedIDs sorts with the slices package: not flagged.
func SortedIDs(m map[int]bool) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
