// Package mem implements the timing model of the GPU memory system:
// per-SMX L1 data caches, a partitioned shared L2, a crossbar
// interconnect, and banked row-buffer DRAM behind FR-FCFS-approximate
// memory controllers.
//
// The model is event-resolved: cache tag state is mutated at issue time
// and every transaction's completion cycle is computed immediately from
// its hit level plus port/bank contention (per-resource next-free times).
// See DESIGN.md §4 for the rationale.
package mem

import "spawnsim/internal/sim/kernel"

// Cache is a set-associative cache tag array with LRU replacement.
// It tracks lines only (no data) and is addressed by line number.
//
// Each set keeps its line tags in recency order, most recently used
// first, so the LRU victim is always the last filled way and no
// per-way stamp is needed.
type Cache struct {
	sets int
	ways int

	tag  []uint64 // sets*ways tags; set s holds tag[s*ways:][:fill[s]]
	fill []int    // filled ways per set

	Accesses uint64
	Hits     uint64
}

// NewCache builds a cache of `bytes` capacity with `ways` associativity
// over lines of `lineBytes`.
func NewCache(bytes kernel.Bytes, ways int, lineBytes kernel.Bytes) *Cache {
	lines := int(bytes / lineBytes) // dimensionless line count
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	return &Cache{
		sets: sets,
		ways: ways,
		tag:  make([]uint64, sets*ways),
		fill: make([]int, sets),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// setOf maps a line to its set: a mask when the set count is a power of
// two, a modulo otherwise.
func (c *Cache) setOf(line uint64) int {
	n := uint64(c.sets)
	if n&(n-1) == 0 {
		return int(line & (n - 1))
	}
	return int(line % n)
}

// Access looks up (and on miss, allocates) the given line.
// It returns true on hit.
func (c *Cache) Access(line uint64) bool {
	c.Accesses++
	set := c.setOf(line)
	ways := c.tag[set*c.ways : (set+1)*c.ways]
	n := c.fill[set]
	for k := 0; k < n; k++ {
		if ways[k] == line {
			copy(ways[1:k+1], ways[:k])
			ways[0] = line
			c.Hits++
			return true
		}
	}
	if n < len(ways) {
		n++
		c.fill[set] = n
	}
	copy(ways[1:n], ways[:n-1]) // a full set drops its LRU line
	ways[0] = line
	return false
}

// Probe reports whether the line is present without touching LRU or stats.
func (c *Cache) Probe(line uint64) bool {
	set := c.setOf(line)
	for _, t := range c.tag[set*c.ways:][:c.fill[set]] {
		if t == line {
			return true
		}
	}
	return false
}

// HitRate returns Hits/Accesses (0 when no accesses).
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}
