package mem

import (
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

	linesPerRow uint64
	lineShift   uint

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
		cfg:         cfg,
		l1:          make([]*Cache, cfg.NumSMX),
		l2:          make([]*Cache, cfg.L2Partitions),
		l1Port:      make([]kernel.Cycle, cfg.NumSMX),
		l2Port:      make([]kernel.Cycle, cfg.L2Partitions),
		banks:       make([]bank, cfg.MemControllers*cfg.BanksPerMC),
		linesPerRow: uint64(cfg.RowBytes / cfg.CacheLineBytes),
	}
	if h.linesPerRow == 0 {
		h.linesPerRow = 1
	}
	for lb := cfg.CacheLineBytes; lb > 1; lb >>= 1 {
		h.lineShift++
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

// partitionOf maps a line to its L2 partition (lines interleave across
// partitions, as address hashing does on real parts).
func (h *Hierarchy) partitionOf(line uint64) int {
	return int(line % uint64(len(h.l2)))
}

// bankOf maps a line to its DRAM bank.
func (h *Hierarchy) bankOf(line uint64) int {
	mc := h.partitionOf(line) / h.cfg.PartitionsPerMC
	b := int((line / uint64(len(h.l2))) % uint64(h.cfg.BanksPerMC))
	return mc*h.cfg.BanksPerMC + b
}

// rowOf maps a line to its DRAM row within its bank. Rows are counted in
// bank-local line indices so that linesPerRow consecutive same-bank lines
// share one row.
func (h *Hierarchy) rowOf(line uint64) uint64 {
	local := line / uint64(len(h.l2)) / uint64(h.cfg.BanksPerMC)
	return local / h.linesPerRow
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
	p := h.partitionOf(line)
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
	b := &h.banks[h.bankOf(line)]
	row := h.rowOf(line)
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
	// Coalesce: addresses within a warp are usually sorted or clustered;
	// dedupe against the lines already issued for this instruction.
	var seen [8]uint64 // small open set; falls back to linear scan
	nSeen := 0
	for _, a := range addrs {
		line := a >> lineShift
		dup := false
		for i := 0; i < nSeen; i++ {
			if seen[i] == line {
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
			// Shift window: keep the most recent lines, which catches
			// the common sequential pattern.
			copy(seen[:], seen[1:])
			seen[len(seen)-1] = line
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

// L2Accesses returns the total L2 lookups.
func (h *Hierarchy) L2Accesses() uint64 {
	var acc uint64
	for _, c := range h.l2 {
		acc += c.Accesses
	}
	return acc
}

// DRAMRowHitRate returns the fraction of DRAM accesses that hit the open row.
func (h *Hierarchy) DRAMRowHitRate() float64 {
	if h.DRAMAccesses == 0 {
		return 0
	}
	return float64(h.DRAMRowHits) / float64(h.DRAMAccesses)
}
