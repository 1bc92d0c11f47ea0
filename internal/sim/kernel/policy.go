package kernel

// Action is the outcome of a launch-policy decision for one candidate.
type Action uint8

const (
	// Serialize declines the launch: the parent thread performs the work
	// itself in a loop (the "else" branch of Figure 3/14).
	Serialize Action = iota
	// LaunchKernel spawns the candidate as a device-side child kernel,
	// paying the Table II launch overhead and entering the GMU pending
	// pool / HWQ machinery.
	LaunchKernel
	// LaunchCTAs spawns the candidate's CTAs directly onto a running
	// aggregated kernel (the DTBL mechanism): no per-kernel launch
	// overhead and no HWQ slot, but CTA concurrency limits still apply.
	LaunchCTAs
	// Defer blocks the launching warp for Decision.APICycles and then
	// re-presents the same candidate (the runtime holding the API call
	// while its launch pool is saturated). SPAWN uses this during cold
	// start so an uncalibrated controller neither floods the queue nor
	// irrevocably serializes work it cannot yet price.
	Defer
)

func (a Action) String() string {
	switch a {
	case Serialize:
		return "serialize"
	case LaunchKernel:
		return "launch-kernel"
	case LaunchCTAs:
		return "launch-ctas"
	case Defer:
		return "defer"
	default:
		return "action?"
	}
}

// Decision is a policy's answer for one launch candidate, including the
// cycles the calling warp is kept busy by the API call.
type Decision struct {
	Action    Action
	APICycles Cycle
}

// LaunchSite carries everything a policy may consult when deciding one
// candidate. The engine keeps one per GPU and refills it for every
// decision, so it and its Candidate are valid only during the Decide
// call that receives them.
type LaunchSite struct {
	Now Cycle
	// Candidate is the lane's proposal.
	Candidate *LaunchCandidate
	// ParentIsChild reports whether the launching warp itself belongs to
	// a child (device-launched) kernel, i.e. this is a nested launch.
	ParentIsChild bool
	// PendingWarpLaunches is the number of launches from this warp still
	// in flight (not yet arrived in the GMU pending pool). The x-th
	// concurrent launch of a warp costs LaunchLatency(x).
	PendingWarpLaunches int
	// EstimatedOverhead is the launch latency this candidate would pay,
	// per the Table II model, if launched now.
	EstimatedOverhead Cycle
}

// Policy decides, at every device-side launch site, whether to spawn the
// child kernel or make the parent thread do the work. Implementations:
// Flat (never spawn), Threshold (the application's static THRESHOLD),
// SPAWN (the paper's controller), and DTBL (the ISCA'15 comparator).
//
// The engine drives the On* hooks; "child" means any device-launched
// work (kernels or DTBL CTA groups), at any nesting depth.
type Policy interface {
	Name() string
	// Decide is called once per launch candidate, in lane order. It must
	// not retain site or site.Candidate past the call: the engine reuses
	// both.
	Decide(site *LaunchSite) Decision
	// OnChildQueued fires when a child kernel (ctas CTAs) becomes
	// visible in the pending pool after its launch overhead elapsed.
	OnChildQueued(now Cycle, ctas int)
	// OnChildCTAStart fires when a child CTA begins executing on an SMX.
	OnChildCTAStart(now Cycle)
	// OnChildCTAFinish fires when a child CTA completes; start is the
	// cycle it began executing, warps its warp count.
	OnChildCTAFinish(now, start Cycle, warps int)
	// OnChildWarpFinish fires when a child warp completes; start is the
	// cycle its CTA began executing.
	OnChildWarpFinish(now, start Cycle)
}

// BasePolicy provides no-op hook implementations for policies that do not
// monitor the GPU (Flat, Threshold, DTBL). Embed it and override Decide.
type BasePolicy struct{}

// OnChildQueued implements Policy.
func (BasePolicy) OnChildQueued(Cycle, int) {}

// OnChildCTAStart implements Policy.
func (BasePolicy) OnChildCTAStart(Cycle) {}

// OnChildCTAFinish implements Policy.
func (BasePolicy) OnChildCTAFinish(Cycle, Cycle, int) {}

// OnChildWarpFinish implements Policy.
func (BasePolicy) OnChildWarpFinish(Cycle, Cycle) {}
