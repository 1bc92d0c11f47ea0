package sim

import (
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/sim/smx"
)

// invariantEvery is the audit period in simulated cycles.
const invariantEvery kernel.Cycle = 65_536

// checkInvariants audits the machine's conservation laws at cycle `now`:
// engine-level kernel accounting, the SMX wake mirror (smxReady and
// smxWake), then every SMX's resource pools and scheduler lists and the
// GMU's queue bookkeeping. No holder may keep a released object, or a
// pointer to a recycled one whose Gen moved on since it was taken: the
// flight heap (kernel, launching warp and Parent chain) is audited
// here; the schedulers, resident CTAs and queues, with the Parent
// chains of their kernels, by smx and gmu. It returns the first
// violation as a *kernel.InvariantError, or nil. Driven by
// Options.CheckInvariants every invariantEvery cycles and once more at
// completion.
func (g *GPU) checkInvariants(now kernel.Cycle) error {
	// Every live kernel is either in launch flight or resident in the
	// GMU (dispatching, queued, or yielded off-queue until completion).
	if got := len(g.flight) + g.gmu.QueuedKernels(); got != g.liveKernels {
		return kernel.Invariantf(now, "sim", "%d live kernels != %d in flight + %d in GMU",
			g.liveKernels, len(g.flight), g.gmu.QueuedKernels())
	}
	for _, it := range g.flight {
		if it.k.Released || it.k.Gen != it.kGen {
			return kernel.Invariantf(now, "sim", "flight heap holds released or stale %v (gen %d, launched at gen %d)",
				it.k, it.k.Gen, it.kGen)
		}
		if w := it.warp; w != nil && (w.Released || w.Gen != it.warpGen) {
			return kernel.Invariantf(now, "sim", "flight heap: %v launched by released or stale warp %d (gen %d, launched at gen %d)",
				it.k, w.Index, w.Gen, it.warpGen)
		}
		if it.k.ArrivalCycle != 0 {
			return kernel.Invariantf(now, "sim", "%v still in flight but marked arrived at cycle %d",
				it.k, it.k.ArrivalCycle)
		}
		if err := it.k.CheckParents(now); err != nil {
			return err
		}
	}
	if g.gmu.PendingCTAs() < 0 {
		return kernel.Invariantf(now, "sim", "negative pending CTA count %d", g.gmu.PendingCTAs())
	}
	wake := smx.NoEvent
	for i, m := range g.smxs {
		if r := m.NextReady(); g.smxReady[i] != r {
			return kernel.Invariantf(now, "sim", "wake mirror of smx %d is %d, scheduler wakes at %d",
				m.ID, g.smxReady[i], r)
		}
		wake = min(wake, g.smxReady[i])
	}
	if g.smxWake != wake {
		return kernel.Invariantf(now, "sim", "smx wake %d != %d, the minimum of the wake mirror", g.smxWake, wake)
	}
	for _, m := range g.smxs {
		if err := m.CheckInvariants(now); err != nil {
			return err
		}
	}
	return g.gmu.CheckInvariants(now)
}
