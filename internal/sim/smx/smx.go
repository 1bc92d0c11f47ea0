// Package smx models one streaming multiprocessor: CTA slots, the
// register/shared-memory/thread resource pools, and the dual
// Greedy-Then-Oldest (GTO) warp schedulers of Table II.
package smx

import (
	"fmt"
	"math"
	"strconv"

	"spawnsim/internal/config"
	"spawnsim/internal/metrics"
	"spawnsim/internal/profile"
	"spawnsim/internal/sim/kernel"
)

// NoEvent is returned by NextReady when no warp will ever become ready.
const NoEvent = kernel.Cycle(math.MaxUint64)

// scheduler is one GTO warp scheduler: it keeps issuing from the current
// (greedy) warp until it stalls, then switches to the oldest ready warp.
type scheduler struct {
	warps  []*kernel.Warp // age order (append order)
	greedy *kernel.Warp
	// minReady is a conservative lower bound on the earliest cycle any
	// warp here can issue; pick() refreshes it, Place() lowers it.
	minReady kernel.Cycle
}

// prune drops retired warps from the front-to-back scan list.
func (s *scheduler) prune() {
	live := s.warps[:0]
	for _, w := range s.warps {
		if w.State == kernel.WarpReady {
			live = append(live, w)
		}
	}
	// Nil the tail so retired warps (and their CTA, kernel and
	// program) are not pinned past len.
	clear(s.warps[len(live):])
	s.warps = live
}

// pick returns a warp that may issue at `now`, or nil. On a miss it
// refreshes minReady so idle schedulers can be skipped cheaply.
func (s *scheduler) pick(now kernel.Cycle) *kernel.Warp {
	if s.minReady > now {
		return nil
	}
	if g := s.greedy; g != nil && g.State == kernel.WarpReady && g.ReadyAt <= now {
		return g
	}
	needPrune := false
	min := NoEvent
	for _, w := range s.warps {
		if w.State != kernel.WarpReady {
			needPrune = true
			continue
		}
		if w.ReadyAt <= now {
			s.greedy = w
			if needPrune {
				s.prune()
			}
			// Another warp may also be ready this cycle.
			s.minReady = now
			return w
		}
		if w.ReadyAt < min {
			min = w.ReadyAt
		}
	}
	if needPrune {
		s.prune()
	}
	s.greedy = nil
	s.minReady = min
	return nil
}

// nextReady returns the cached earliest issue cycle (a lower bound).
func (s *scheduler) nextReady() kernel.Cycle { return s.minReady }

// SMX is one streaming multiprocessor.
type SMX struct {
	ID  int
	cfg *config.GPU

	freeThreads kernel.ThreadCount
	freeRegs    int
	freeShmem   kernel.Bytes
	freeCTAs    int

	scheds []scheduler

	resident []*kernel.CTA

	// Observability (nil when metrics are disabled; see Instrument).
	mPlaced   *metrics.Counter
	mReleased *metrics.Counter
}

// New creates an SMX with full resources.
func New(id int, cfg *config.GPU) *SMX {
	return &SMX{
		ID:          id,
		cfg:         cfg,
		freeThreads: cfg.MaxThreadsPerSM,
		freeRegs:    cfg.RegistersPerSM,
		freeShmem:   cfg.SharedMemPerSM,
		freeCTAs:    cfg.MaxCTAsPerSM,
		scheds:      make([]scheduler, cfg.SchedulersPerSM),
	}
}

// Instrument registers this SMX's observability series with reg:
// cumulative CTA placement/release counters plus snapshot-time gauges
// for utilization and residency, all labelled smx=<id>. No-op when reg
// is nil.
func (m *SMX) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	id := strconv.Itoa(m.ID)
	m.mPlaced = reg.Counter("smx_ctas_placed", "smx", id)
	m.mReleased = reg.Counter("smx_ctas_released", "smx", id)
	reg.GaugeFunc("smx_utilization", m.Utilization, "smx", id)
	reg.GaugeFunc("smx_resident_ctas", func() float64 { return float64(len(m.resident)) }, "smx", id)
	reg.GaugeFunc("smx_free_threads", func() float64 { return float64(m.freeThreads) }, "smx", id)
}

// Fits reports whether CTA c can be placed now.
func (m *SMX) Fits(c *kernel.CTA) bool {
	return m.FitsRes(c.Threads, c.Regs, c.SharedMem)
}

// FitsRes reports whether a CTA with the given resource footprint can be
// placed now (used to check a Def before materializing the CTA).
func (m *SMX) FitsRes(threads kernel.ThreadCount, regs int, shmem kernel.Bytes) bool {
	return threads <= m.freeThreads &&
		regs <= m.freeRegs &&
		shmem <= m.freeShmem &&
		m.freeCTAs >= 1
}

// Place reserves resources for c and registers its warps with the
// schedulers (alternating by warp index). ageSeq provides monotonically
// increasing ages for GTO ordering.
func (m *SMX) Place(now kernel.Cycle, c *kernel.CTA, ageSeq *uint64) {
	if !m.Fits(c) {
		panic(kernel.Invariantf(now, m.component(), "placing CTA that does not fit"))
	}
	m.freeThreads -= c.Threads
	m.freeRegs -= c.Regs
	m.freeShmem -= c.SharedMem
	m.freeCTAs--
	c.SMX = m.ID
	c.State = kernel.CTARunning
	c.StartCycle = now
	m.resident = append(m.resident, c)
	m.mPlaced.Inc()
	for i, w := range c.Warps {
		*ageSeq++
		w.Age = *ageSeq
		w.ReadyAt = now
		w.State = kernel.WarpReady
		sc := &m.scheds[i%len(m.scheds)]
		sc.warps = append(sc.warps, w)
		if sc.minReady > now {
			sc.minReady = now
		}
	}
}

// Release frees the resources held by c (CTA completion or
// relinquishment at a synchronization point).
func (m *SMX) Release(now kernel.Cycle, c *kernel.CTA) {
	if c.SMX != m.ID {
		panic(kernel.Invariantf(now, m.component(), "releasing CTA resident on smx %d", c.SMX))
	}
	m.freeThreads += c.Threads
	m.freeRegs += c.Regs
	m.freeShmem += c.SharedMem
	m.freeCTAs++
	for i, r := range m.resident {
		if r == c {
			m.resident = append(m.resident[:i], m.resident[i+1:]...)
			break
		}
	}
	c.SMX = -1
	m.mReleased.Inc()
}

// Schedulers returns the scheduler count.
func (m *SMX) Schedulers() int { return len(m.scheds) }

// Pick returns a warp eligible to issue on scheduler si at `now`, or nil.
func (m *SMX) Pick(si int, now kernel.Cycle) *kernel.Warp {
	return m.scheds[si].pick(now)
}

// NextReady returns the earliest cycle any warp on this SMX can issue.
func (m *SMX) NextReady() kernel.Cycle {
	min := NoEvent
	for i := range m.scheds {
		if r := m.scheds[i].nextReady(); r < min {
			min = r
		}
	}
	return min
}

// ResidentCTAs reports CTAs currently holding resources.
func (m *SMX) ResidentCTAs() int { return len(m.resident) }

// ActivityState classifies this SMX's tick for the cycle-attribution
// profiler (see internal/profile): busy when a warp issued, idle when
// nothing is resident, stalled-on-sync when every resident warp is
// parked at a synchronization point (NextReady sees no wake cycle),
// and stalled-on-latency otherwise (resident warps blocked on memory
// or ALU timing edges). Two cached loads on the common no-issue path.
func (m *SMX) ActivityState(issued bool) profile.State {
	if issued {
		return profile.StateBusy
	}
	if len(m.resident) == 0 {
		return profile.StateIdle
	}
	if m.NextReady() == NoEvent {
		return profile.StallSync
	}
	return profile.StallLatency
}

// Utilization returns the Section III-A1 resource utilization of this
// SMX: the maximum of register-file, shared-memory, and thread-slot
// utilization.
func (m *SMX) Utilization() float64 {
	r := 1 - float64(m.freeRegs)/float64(m.cfg.RegistersPerSM)
	s := 1 - float64(m.freeShmem)/float64(m.cfg.SharedMemPerSM)
	t := 1 - float64(m.freeThreads)/float64(m.cfg.MaxThreadsPerSM)
	u := r
	if s > u {
		u = s
	}
	if t > u {
		u = t
	}
	return u
}

// component names this SMX in invariant diagnostics.
func (m *SMX) component() string { return fmt.Sprintf("smx %d", m.ID) }

// CheckInvariants audits the SMX's conservation laws at cycle `now`:
// resource pools within bounds, reservations of resident CTAs summing
// back to the hardware totals, resident CTAs in the running state on
// this SMX, and warp launch-buffer cursors in range. It returns a
// *kernel.InvariantError describing the first violation, or nil.
func (m *SMX) CheckInvariants(now kernel.Cycle) error {
	cfg := m.cfg
	if n := len(m.resident); n > cfg.MaxCTAsPerSM {
		return kernel.Invariantf(now, m.component(), "%d resident CTAs exceed limit %d", n, cfg.MaxCTAsPerSM)
	}
	if m.freeCTAs != cfg.MaxCTAsPerSM-len(m.resident) {
		return kernel.Invariantf(now, m.component(), "free CTA slots %d != %d - %d resident",
			m.freeCTAs, cfg.MaxCTAsPerSM, len(m.resident))
	}
	var threads kernel.ThreadCount
	var regs int
	var shmem kernel.Bytes
	for _, c := range m.resident {
		if c.State != kernel.CTARunning {
			return kernel.Invariantf(now, m.component(), "resident CTA %d of %v in state %d, want running",
				c.Index, c.Kernel, c.State)
		}
		if c.SMX != m.ID {
			return kernel.Invariantf(now, m.component(), "resident CTA %d of %v claims smx %d",
				c.Index, c.Kernel, c.SMX)
		}
		threads += c.Threads
		regs += c.Regs
		shmem += c.SharedMem
		for _, w := range c.Warps {
			if w.LaunchCursor < 0 || w.LaunchCursor > len(w.LaunchBuf) {
				return kernel.Invariantf(now, m.component(), "warp %d of CTA %d: launch cursor %d outside [0,%d]",
					w.Index, c.Index, w.LaunchCursor, len(w.LaunchBuf))
			}
			if w.InLaunch && w.LaunchCursor >= len(w.LaunchBuf) {
				return kernel.Invariantf(now, m.component(), "warp %d of CTA %d: in-launch with cursor %d past buffer %d",
					w.Index, c.Index, w.LaunchCursor, len(w.LaunchBuf))
			}
			if w.PendingLaunches < 0 {
				return kernel.Invariantf(now, m.component(), "warp %d of CTA %d: negative pending launches %d",
					w.Index, c.Index, w.PendingLaunches)
			}
		}
	}
	if m.freeThreads != cfg.MaxThreadsPerSM-threads {
		return kernel.Invariantf(now, m.component(), "thread pool: free %d + reserved %d != %d",
			m.freeThreads, threads, cfg.MaxThreadsPerSM)
	}
	if m.freeRegs != cfg.RegistersPerSM-regs {
		return kernel.Invariantf(now, m.component(), "register pool: free %d + reserved %d != %d",
			m.freeRegs, regs, cfg.RegistersPerSM)
	}
	if m.freeShmem != cfg.SharedMemPerSM-shmem {
		return kernel.Invariantf(now, m.component(), "shared-mem pool: free %d + reserved %d != %d",
			m.freeShmem, shmem, cfg.SharedMemPerSM)
	}
	return nil
}

// FreeThreads exposes the free thread slots (tests/diagnostics).
func (m *SMX) FreeThreads() kernel.ThreadCount { return m.freeThreads }

// FreeCTASlots exposes the free CTA slots.
func (m *SMX) FreeCTASlots() int { return m.freeCTAs }
