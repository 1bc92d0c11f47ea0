package mem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spawnsim/internal/config"
	"spawnsim/internal/sim/kernel"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(16*1024, 4, 128) // 128 lines, 32 sets
	if c.Access(42) {
		t.Error("cold access hit")
	}
	if !c.Access(42) {
		t.Error("second access missed")
	}
	if c.Accesses != 2 || c.Hits != 1 {
		t.Errorf("stats = %d/%d, want 2/1", c.Hits, c.Accesses)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(4*128, 4, 128) // 1 set, 4 ways
	for line := uint64(0); line < 4; line++ {
		c.Access(line)
	}
	c.Access(0) // refresh line 0
	c.Access(4) // evicts LRU = line 1
	if !c.Probe(0) {
		t.Error("line 0 evicted despite refresh")
	}
	if c.Probe(1) {
		t.Error("line 1 not evicted")
	}
	if !c.Probe(4) {
		t.Error("line 4 not resident")
	}
}

func TestCacheSetMapping(t *testing.T) {
	c := NewCache(16*1024, 4, 128)
	sets := uint64(c.Sets())
	// Lines mapping to different sets never conflict.
	c.Access(0)
	for i := uint64(1); i < sets; i++ {
		c.Access(i)
	}
	if !c.Probe(0) {
		t.Error("line 0 evicted by accesses to other sets")
	}
}

// refCache is the cache as it was before sets were kept in recency
// order: parallel valid/tag/stamp slices, and a victim search over every
// way on a miss. It is the oracle of TestCacheMatchesReference.
type refCache struct {
	sets int
	ways int

	valid []bool
	tag   []uint64
	use   []uint64 // LRU clock per way

	clock uint64

	Accesses uint64
	Hits     uint64
}

func newRefCache(bytes kernel.Bytes, ways int, lineBytes kernel.Bytes) *refCache {
	lines := int(bytes / lineBytes) // dimensionless line count
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	n := sets * ways
	return &refCache{
		sets:  sets,
		ways:  ways,
		valid: make([]bool, n),
		tag:   make([]uint64, n),
		use:   make([]uint64, n),
	}
}

func (c *refCache) Access(line uint64) bool {
	c.clock++
	c.Accesses++
	set := int(line % uint64(c.sets))
	base := set * c.ways
	victim := base
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tag[i] == line {
			c.use[i] = c.clock
			c.Hits++
			return true
		}
		if !c.valid[i] {
			victim = i
		} else if c.valid[victim] && c.use[i] < c.use[victim] {
			victim = i
		}
	}
	c.valid[victim] = true
	c.tag[victim] = line
	c.use[victim] = c.clock
	return false
}

func (c *refCache) Probe(line uint64) bool {
	set := int(line % uint64(c.sets))
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tag[i] == line {
			return true
		}
	}
	return false
}

// lineUniverse returns n distinct lines: the lowest n/2 line numbers,
// from 0, and the highest n-n/2, up to MaxUint64.
func lineUniverse(n int) []uint64 {
	u := make([]uint64, 0, n)
	for i := 0; i < n/2; i++ {
		u = append(u, uint64(i))
	}
	for i := n - n/2 - 1; i >= 0; i-- {
		u = append(u, math.MaxUint64-uint64(i))
	}
	return u
}

// lineStream draws n accesses over universe from a seeded source: a
// third re-touch a hot set of hot lines, a third start sequential runs
// of 1 to 16 consecutive lines, a third are uniform draws.
func lineStream(r *rand.Rand, universe []uint64, hot, n int) []uint64 {
	hotSet := make([]uint64, hot)
	for i := range hotSet {
		hotSet[i] = universe[r.Intn(len(universe))]
	}
	out := make([]uint64, 0, n)
	for len(out) < n {
		switch r.Intn(3) {
		case 0:
			out = append(out, hotSet[r.Intn(hot)])
		case 1:
			i := r.Intn(len(universe))
			for k := 1 + r.Intn(16); k > 0 && len(out) < n; k-- {
				out = append(out, universe[i%len(universe)])
				i++
			}
		default:
			out = append(out, universe[r.Intn(len(universe))])
		}
	}
	return out
}

// TestCacheMatchesReference drives the cache and refCache with the same
// seeded line streams: every Access must agree, and so must the counters
// and, at checkpoints, Probe on every line of the universe.
func TestCacheMatchesReference(t *testing.T) {
	const lineBytes = 128
	geometries := []struct{ sets, ways int }{
		{1, 4}, {32, 4}, {128, 8}, // K20m L1 and L2 partition among them
		{3, 8}, {12, 2}, // set counts that are not a power of two
	}
	for _, g := range geometries {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.sets, g.ways, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				capacity := g.sets * g.ways
				bytes := kernel.Bytes(capacity * lineBytes)
				c, ref := NewCache(bytes, g.ways, lineBytes), newRefCache(bytes, g.ways, lineBytes)
				if c.Sets() != g.sets {
					t.Fatalf("sets = %d, want %d", c.Sets(), g.sets)
				}
				universe := lineUniverse(capacity * (2 + r.Intn(3)))
				stream := lineStream(r, universe, 1+capacity/2, 20000)
				for i, line := range stream {
					if got, want := c.Access(line), ref.Access(line); got != want {
						t.Fatalf("access %d (line %#x): hit = %v, reference %v", i, line, got, want)
					}
					if i%1000 != 999 {
						continue
					}
					for _, l := range universe {
						if got, want := c.Probe(l), ref.Probe(l); got != want {
							t.Fatalf("after access %d: Probe(%#x) = %v, reference %v", i, l, got, want)
						}
					}
				}
				if c.Hits != ref.Hits || c.Accesses != ref.Accesses {
					t.Errorf("hits/accesses = %d/%d, reference %d/%d", c.Hits, c.Accesses, ref.Hits, ref.Accesses)
				}
			})
		}
	}
}

// benchSink keeps the benchmarks' results live.
var benchSink uint64

// BenchmarkCacheAccess times one Access on the K20m L1 and L2-partition
// geometries over a seeded stream whose universe is three times the
// cache's capacity.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := testCfg()
	for _, g := range []struct {
		name  string
		bytes kernel.Bytes
		ways  int
	}{
		{"l1", cfg.L1Bytes, cfg.L1Ways},
		{"l2", cfg.L2PartitionBytes, cfg.L2Ways},
	} {
		b.Run(g.name, func(b *testing.B) {
			c := NewCache(g.bytes, g.ways, cfg.CacheLineBytes)
			capacity := c.Sets() * g.ways
			r := rand.New(rand.NewSource(1))
			stream := lineStream(r, lineUniverse(3*capacity), 1+capacity/2, 1<<16)
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Access(stream[i&(len(stream)-1)]) {
					hits++
				}
			}
			benchSink = uint64(hits)
		})
	}
}

// BenchmarkHierarchyAccess times one warp memory instruction on K20m
// over a seeded stream of 32-lane accesses, a third each coalesced
// (consecutive words), strided (one line per lane) and scattered, over
// a 4 MiB working set.
func BenchmarkHierarchyAccess(b *testing.B) {
	cfg := testCfg()
	h := NewHierarchy(cfg)
	const warps, lanes, span = 1 << 12, 32, 4 << 20
	r := rand.New(rand.NewSource(1))
	addrs := make([]uint64, warps*lanes)
	smx := make([]int, warps)
	for w := range smx {
		smx[w] = r.Intn(cfg.NumSMX)
		base := uint64(r.Intn(span))
		mode := r.Intn(3)
		for l := 0; l < lanes; l++ {
			a := base + uint64(l)*4
			switch mode {
			case 1:
				a = base + uint64(l)*uint64(cfg.CacheLineBytes)
			case 2:
				a = uint64(r.Intn(span))
			}
			addrs[w*lanes+l] = a % span
		}
	}
	var done kernel.Cycle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i & (warps - 1)
		done = h.Access(kernel.Cycle(4*i), smx[w], addrs[w*lanes:(w+1)*lanes])
	}
	benchSink = uint64(done)
}

func testCfg() config.GPU { return config.K20m() }

func TestHierarchyL1Hit(t *testing.T) {
	h := NewHierarchy(testCfg())
	cfg := testCfg()
	// First access: full miss to DRAM.
	t1 := h.Access(0, 0, []uint64{0x1000})
	if t1 <= cfg.L2HitLatency {
		t.Errorf("cold miss completed too fast: %d", t1)
	}
	// Second access to the same line: L1 hit.
	t2 := h.Access(1000, 0, []uint64{0x1000})
	want := 1000 + cfg.L1HitLatency
	if t2 != want {
		t.Errorf("L1 hit completion = %d, want %d", t2, want)
	}
}

func TestHierarchyL2SharedAcrossSMXs(t *testing.T) {
	h := NewHierarchy(testCfg())
	h.Access(0, 0, []uint64{0x2000}) // SMX 0 warms L2
	before := h.DRAMAccesses
	h.Access(5000, 1, []uint64{0x2000}) // SMX 1 misses L1, hits shared L2
	if h.DRAMAccesses != before {
		t.Error("second SMX went to DRAM despite warm L2")
	}
	if h.L2HitRate() == 0 {
		t.Error("L2 hit rate is zero after a shared hit")
	}
}

func TestHierarchyCoalescing(t *testing.T) {
	h := NewHierarchy(testCfg())
	// 32 lanes touching consecutive 4-byte words: one 128B line.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x8000 + uint64(i*4)
	}
	h.Access(0, 0, addrs)
	if h.Transactions != 1 {
		t.Errorf("transactions = %d, want 1 (perfectly coalesced)", h.Transactions)
	}
	// 32 lanes striding 128B: 32 transactions.
	for i := range addrs {
		addrs[i] = 0x100000 + uint64(i*128)
	}
	h.Access(0, 0, addrs)
	if h.Transactions != 33 {
		t.Errorf("transactions = %d, want 33 (uncoalesced)", h.Transactions)
	}
}

func TestHierarchyDRAMRowLocality(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg)
	// Two consecutive same-bank lines map to the same row
	// (banks interleave at partition*bank granularity).
	stride := uint64(cfg.L2Partitions*cfg.BanksPerMC) * uint64(cfg.CacheLineBytes)
	h.Access(0, 0, []uint64{0})
	h.Access(100000, 0, []uint64{stride})
	if h.DRAMAccesses != 2 {
		t.Fatalf("DRAM accesses = %d, want 2", h.DRAMAccesses)
	}
	if h.DRAMRowHits != 1 {
		t.Errorf("row hits = %d, want 1 (same-row consecutive lines)", h.DRAMRowHits)
	}
}

func TestHierarchyPortContention(t *testing.T) {
	h := NewHierarchy(testCfg())
	cfg := testCfg()
	// Warm the line so both accesses are L1 hits; the second is delayed
	// one cycle by the L1 port.
	h.Access(0, 0, []uint64{0x40000})
	h.Access(0, 0, []uint64{0x40000}) // same cycle? port was advanced; re-warm timing:
	t1 := h.Access(10000, 0, []uint64{0x40000})
	t2 := h.Access(10000, 0, []uint64{0x40000})
	if t2 != t1+1 {
		t.Errorf("port contention: t1=%d t2=%d, want t2 = t1+1", t1, t2)
	}
	_ = cfg
}

func TestHierarchyMonotoneCompletion(t *testing.T) {
	h := NewHierarchy(testCfg())
	f := func(addrRaw []uint32, smxRaw uint8) bool {
		if len(addrRaw) == 0 {
			return true
		}
		smx := int(smxRaw) % 13
		addrs := make([]uint64, 0, len(addrRaw))
		for _, a := range addrRaw {
			addrs = append(addrs, uint64(a))
		}
		now := kernel.Cycle(1000)
		done := h.Access(now, smx, addrs)
		return done > now
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionAndBankMapping(t *testing.T) {
	cfg := testCfg()
	h := NewHierarchy(cfg)
	// Partition mapping covers all partitions for consecutive lines.
	seen := map[int]bool{}
	for line := uint64(0); line < uint64(cfg.L2Partitions); line++ {
		p := h.partitionOf(line)
		if p < 0 || p >= cfg.L2Partitions {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != cfg.L2Partitions {
		t.Errorf("consecutive lines cover %d partitions, want %d", len(seen), cfg.L2Partitions)
	}
	// Bank ids stay in range.
	for line := uint64(0); line < 10000; line += 97 {
		b := h.bankOf(line)
		if b < 0 || b >= cfg.MemControllers*cfg.BanksPerMC {
			t.Fatalf("bank %d out of range for line %d", b, line)
		}
	}
}
