package mem

import (
	"math/bits"
	"strconv"

	"spawnsim/internal/config"
	"spawnsim/internal/metrics"
	"spawnsim/internal/sim/kernel"
)

// bank models one DRAM bank: an open row and a next-free time that
// serializes requests (the FR-FCFS approximation: requests are serviced
// in arrival order, but a request hitting the open row pays the cheaper
// row-hit latency, which is the first-order bandwidth effect of FR-FCFS).
type bank struct {
	openRow  uint64 // row ordinal, not a time
	hasRow   bool
	nextFree kernel.Cycle
}

// Hierarchy is the full memory system shared by all SMXs.
type Hierarchy struct {
	cfg config.GPU

	l1 []*Cache // one per SMX
	l2 []*Cache // one per partition

	l1Port []kernel.Cycle // per-SMX L1 next-free time (1 transaction/cycle)
	l2Port []kernel.Cycle // per-partition L2 next-free time
	banks  []bank         // MemControllers * BanksPerMC

	// Line routing (see route): parts is the partition count, bankBase
	// the first bank of each partition's memory controller, bankMask
	// selects the bank within it and rowShift drops the bank bits and the
	// lines of one row. config.Validate keeps BanksPerMC and the lines
	// per row powers of two.
	parts     uint64
	bankBase  []int
	bankMask  uint64
	rowShift  uint
	lineShift uint

	// dramPenalty, when non-nil, returns extra cycles for a DRAM access
	// serviced at the given cycle (the fault injector's latency-spike
	// hook).
	dramPenalty func(now kernel.Cycle) kernel.Cycle

	// Statistics.
	DRAMAccesses uint64
	DRAMRowHits  uint64
	Transactions uint64 // memory transactions after coalescing
	WarpAccesses uint64 // warp-level memory instructions
}

// NewHierarchy builds the memory system for the given configuration.
func NewHierarchy(cfg config.GPU) *Hierarchy {
	h := &Hierarchy{
		cfg:       cfg,
		l1:        make([]*Cache, cfg.NumSMX),
		l2:        make([]*Cache, cfg.L2Partitions),
		l1Port:    make([]kernel.Cycle, cfg.NumSMX),
		l2Port:    make([]kernel.Cycle, cfg.L2Partitions),
		banks:     make([]bank, cfg.MemControllers*cfg.BanksPerMC),
		parts:     uint64(cfg.L2Partitions),
		bankBase:  make([]int, cfg.L2Partitions),
		bankMask:  uint64(cfg.BanksPerMC - 1),
		rowShift:  log2(uint64(cfg.BanksPerMC)) + log2(uint64(cfg.RowBytes/cfg.CacheLineBytes)),
		lineShift: log2(uint64(cfg.CacheLineBytes)),
	}
	for p := range h.bankBase {
		h.bankBase[p] = p / cfg.PartitionsPerMC * cfg.BanksPerMC
	}
	for i := range h.l1 {
		h.l1[i] = NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.CacheLineBytes)
	}
	for i := range h.l2 {
		h.l2[i] = NewCache(cfg.L2PartitionBytes, cfg.L2Ways, cfg.CacheLineBytes)
	}
	return h
}

// Instrument registers the memory system's observability series with
// reg. Every series is a snapshot-time collector over counters the
// hierarchy already maintains — per-SMX L1 and per-partition L2
// hits/misses, DRAM row-buffer behaviour, coalescing totals — so the
// access path costs nothing extra. No-op when reg is nil.
func (h *Hierarchy) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for i, c := range h.l1 {
		id := strconv.Itoa(i)
		reg.CounterFunc("mem_l1_hits", func() float64 { return float64(c.Hits) }, "smx", id)
		reg.CounterFunc("mem_l1_misses", func() float64 { return float64(c.Accesses - c.Hits) }, "smx", id)
	}
	for i, c := range h.l2 {
		id := strconv.Itoa(i)
		reg.CounterFunc("mem_l2_hits", func() float64 { return float64(c.Hits) }, "partition", id)
		reg.CounterFunc("mem_l2_misses", func() float64 { return float64(c.Accesses - c.Hits) }, "partition", id)
	}
	reg.CounterFunc("mem_dram_accesses", func() float64 { return float64(h.DRAMAccesses) })
	reg.CounterFunc("mem_dram_row_hits", func() float64 { return float64(h.DRAMRowHits) })
	reg.CounterFunc("mem_transactions", func() float64 { return float64(h.Transactions) })
	reg.CounterFunc("mem_warp_accesses", func() float64 { return float64(h.WarpAccesses) })
	reg.GaugeFunc("mem_l1_hit_rate", h.L1HitRate)
	reg.GaugeFunc("mem_l2_hit_rate", h.L2HitRate)
	reg.GaugeFunc("mem_dram_row_hit_rate", h.DRAMRowHitRate)
}

// BusyBanks counts DRAM banks still serving a request at cycle now.
// A bank scan, so the profiler gathers it only on timeline-sample
// ticks (see profile.SampleDue), never on the per-access path.
func (h *Hierarchy) BusyBanks(now kernel.Cycle) int {
	n := 0
	for i := range h.banks {
		if h.banks[i].nextFree > now {
			n++
		}
	}
	return n
}

// log2 returns the exponent of a power of two.
func log2(n uint64) uint { return uint(bits.TrailingZeros64(n)) }

// route maps a line to its L2 partition (lines interleave across
// partitions, as address hashing does on real parts), its DRAM bank and
// its row within that bank. All three derive from q, the line's index
// among its partition's lines: the bank interleaves on q within the
// partition's memory controller, and rows count bank-local lines so
// that the lines of one row-buffer in the same bank share a row.
func (h *Hierarchy) route(line uint64) (part, bank int, row uint64) {
	q := line / h.parts
	part = int(line - q*h.parts)
	return part, h.bankBase[part] + int(q&h.bankMask), q >> h.rowShift
}

// lineTransaction times one coalesced line access from SMX `smx` issued
// at `now`, returning the completion cycle.
func (h *Hierarchy) lineTransaction(now kernel.Cycle, smx int, line uint64) kernel.Cycle {
	cfg := &h.cfg
	h.Transactions++

	// L1 port: one transaction per cycle per SMX.
	start := now
	if h.l1Port[smx] > start {
		start = h.l1Port[smx]
	}
	h.l1Port[smx] = start + 1

	if h.l1[smx].Access(line) {
		return start + cfg.L1HitLatency
	}

	// Traverse the crossbar to the L2 partition.
	p, bi, row := h.route(line)
	atL2 := start + cfg.L1HitLatency + cfg.InterconnectLat
	if h.l2Port[p] > atL2 {
		atL2 = h.l2Port[p]
	}
	h.l2Port[p] = atL2 + 1

	if h.l2[p].Access(line) {
		return atL2 + cfg.L2HitLatency + cfg.InterconnectLat
	}

	// DRAM.
	h.DRAMAccesses++
	b := &h.banks[bi]
	atBank := atL2 + cfg.L2HitLatency
	if b.nextFree > atBank {
		atBank = b.nextFree
	}
	var dramLat kernel.Cycle
	if b.hasRow && b.openRow == row {
		h.DRAMRowHits++
		dramLat = cfg.DRAMRowHitLat
	} else {
		dramLat = cfg.DRAMRowMissLat
		b.openRow = row
		b.hasRow = true
	}
	if h.dramPenalty != nil {
		dramLat += h.dramPenalty(atBank)
	}
	b.nextFree = atBank + cfg.DRAMCyclesPerReq
	return atBank + dramLat + cfg.InterconnectLat
}

// SetDRAMPenalty installs the per-access extra-latency hook consulted on
// the DRAM path (nil disables it). The fault injector's DRAM spike
// windows enter the hierarchy through here.
func (h *Hierarchy) SetDRAMPenalty(penalty func(now kernel.Cycle) kernel.Cycle) {
	h.dramPenalty = penalty
}

// Access times one warp memory instruction: the per-lane byte addresses
// are coalesced into unique cache-line transactions; the warp's
// completion cycle is that of the slowest transaction. Stores are timed
// like loads (write-allocate).
func (h *Hierarchy) Access(now kernel.Cycle, smx int, addrs []uint64) kernel.Cycle {
	h.WarpAccesses++
	lineShift := h.lineShift
	done := now
	// Coalesce: addresses within a warp are usually sorted or clustered,
	// so each line is deduplicated against the last len(seen) distinct
	// lines of this instruction, a ring that overwrites its oldest entry.
	// A line that comes back after leaving the window is issued again
	// (and timed as a second transaction): that is model behaviour.
	var seen [8]uint64
	nSeen, oldest := 0, 0
	for _, a := range addrs {
		line := a >> lineShift
		dup := false
		for _, s := range seen[:nSeen] {
			if s == line {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if nSeen < len(seen) {
			seen[nSeen] = line
			nSeen++
		} else {
			seen[oldest] = line
			oldest = (oldest + 1) % len(seen)
		}
		if t := h.lineTransaction(now, smx, line); t > done {
			done = t
		}
	}
	return done
}

// L1HitRate aggregates the hit rate across all SMX L1 caches.
func (h *Hierarchy) L1HitRate() float64 {
	var acc, hit uint64
	for _, c := range h.l1 {
		acc += c.Accesses
		hit += c.Hits
	}
	if acc == 0 {
		return 0
	}
	return float64(hit) / float64(acc)
}

// L2HitRate aggregates the hit rate across all L2 partitions
// (the Figure 17 metric).
func (h *Hierarchy) L2HitRate() float64 {
	var acc, hit uint64
	for _, c := range h.l2 {
		acc += c.Accesses
		hit += c.Hits
	}
	if acc == 0 {
		return 0
	}
	return float64(hit) / float64(acc)
}

// DRAMRowHitRate returns the fraction of DRAM accesses that hit the open row.
func (h *Hierarchy) DRAMRowHitRate() float64 {
	if h.DRAMAccesses == 0 {
		return 0
	}
	return float64(h.DRAMRowHits) / float64(h.DRAMAccesses)
}
