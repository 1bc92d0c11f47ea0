package sim

import (
	"sort"

	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/stats"
)

// SiteDecision aggregates the launch-policy outcomes attributed to one
// launch site (the parent kernel definition name).
type SiteDecision struct {
	Site     string
	Accepted uint64
	Declined uint64
	Deferred uint64
}

// Result carries the metrics of one completed simulation.
type Result struct {
	// Cycles is the total execution time of the run.
	Cycles kernel.Cycle

	// Occupancy is average active warps per cycle divided by the warp
	// slots across all SMXs (the Figure 16 metric).
	Occupancy float64

	// L1HitRate and L2HitRate are aggregate cache hit rates
	// (Figure 17 reports L2).
	L1HitRate float64
	L2HitRate float64

	// ChildKernels is the number of device-side child kernels actually
	// launched (Figure 18). DTBLGroups counts DTBL CTA-group launches.
	ChildKernels int
	DTBLGroups   int

	// LaunchOffers counts launch-site candidates presented to the
	// policy (one per parent thread with offloadable work).
	LaunchOffers int

	// OffloadedFraction is offloaded workload items / offered workload
	// items (the Figure 5 x-axis).
	OffloadedFraction float64

	// QueueLatency is the mean cycles kernels waited in the GMU between
	// pending-pool arrival and first CTA dispatch.
	QueueLatency float64

	// AvgConcurrentParentCTAs / AvgConcurrentChildCTAs are time-weighted
	// means over the run.
	AvgConcurrentParentCTAs float64
	AvgConcurrentChildCTAs  float64

	// ChildCTAExec holds per-child-CTA execution times (Figure 12).
	ChildCTAExec *stats.Histogram

	// LaunchCycles are the decision cycles of accepted device launches
	// (Figure 20's CDF input).
	LaunchCycles []kernel.Cycle

	// Time series (non-nil only when Options.SampleInterval > 0).
	ParentCTASeries *stats.LevelSeries
	ChildCTASeries  *stats.LevelSeries
	UtilSeries      *stats.LevelSeries

	// Memory system counters.
	DRAMAccesses uint64
	Transactions uint64

	// SiteDecisions breaks launch-policy outcomes down by launch site,
	// sorted by site name (non-nil only when Options.Metrics is set).
	// The order is part of the determinism contract: two runs of the
	// same (config, seed, plan) must serialize identically.
	SiteDecisions []SiteDecision
}

// result snapshots the metrics at the end of Run.
func (g *GPU) result() *Result {
	end := g.clock
	// Flush the quiet span still pending at snapshot time (abort paths:
	// the clock can sit past the last tick when a jump hit the budget
	// clamp or a deadlock surfaced), so Ticked+Skipped == Cycles holds
	// on every Result the profiler reports against.
	g.prof.SkipTo(uint64(g.lastTick), uint64(end))
	g.prof.Finish(uint64(end))
	totalWarpSlots := float64(g.cfg.NumSMX * g.cfg.MaxWarpsPerSM())
	offload := 0.0
	if g.offeredWork > 0 {
		offload = float64(g.offloadedWork) / float64(g.offeredWork)
	}
	//spawnvet:allow hotpath result runs once per Run, building the Result that Run returns
	r := &Result{
		Cycles:                  end,
		Occupancy:               g.activeWarps.Average(uint64(end)) / totalWarpSlots,
		L1HitRate:               g.mem.L1HitRate(),
		L2HitRate:               g.mem.L2HitRate(),
		ChildKernels:            g.childKernels,
		DTBLGroups:              g.dtblGroups,
		LaunchOffers:            g.launchOffers,
		OffloadedFraction:       offload,
		QueueLatency:            g.gmu.QueueLatency.Value(),
		AvgConcurrentParentCTAs: g.parentCTAs.Average(uint64(end)),
		AvgConcurrentChildCTAs:  g.childCTAs.Average(uint64(end)),
		ChildCTAExec:            g.childCTAExec,
		LaunchCycles:            g.launchCycles.AppendTo(nil),
		DRAMAccesses:            g.mem.DRAMAccesses,
		Transactions:            g.mem.Transactions,
	}
	if g.parentSeries != nil {
		g.parentSeries.Finish(uint64(end))
		g.childSeries.Finish(uint64(end))
		g.utilSeries.Finish(uint64(end))
		r.ParentCTASeries = g.parentSeries
		r.ChildCTASeries = g.childSeries
		r.UtilSeries = g.utilSeries
	}
	r.SiteDecisions = g.siteDecisions()
	return r
}

// siteDecisions snapshots decBySite in sorted site order. Iterating the
// map directly would leak Go's randomized order into Result.
func (g *GPU) siteDecisions() []SiteDecision {
	if g.decBySite == nil {
		return nil
	}
	sites := make([]string, 0, len(g.decBySite))
	for site := range g.decBySite {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	out := make([]SiteDecision, 0, len(sites))
	for _, site := range sites {
		sc := g.decBySite[site]
		out = append(out, SiteDecision{
			Site:     site,
			Accepted: sc.accepted.Value(),
			Declined: sc.declined.Value(),
			Deferred: sc.deferred.Value(),
		})
	}
	return out
}
