package dtbl

import (
	"testing"

	"spawnsim/internal/sim/kernel"
)

func prog(arg, cta, warp, lanes int, old kernel.Program) kernel.Program {
	return kernel.ProgramFunc(func(x *kernel.Exec, in *kernel.Instr) bool { return false })
}

func site(workload int) *kernel.LaunchSite {
	return &kernel.LaunchSite{
		Candidate: &kernel.LaunchCandidate{
			Workload: workload,
			Def:      &kernel.Def{Name: "c", CTAThreads: 32, NewProgram: prog},
			GridCTAs: 1,
		},
	}
}

func TestDecide(t *testing.T) {
	p := New(32)
	if dec := p.Decide(site(100)); dec.Action != kernel.LaunchCTAs {
		t.Errorf("above threshold: %v, want LaunchCTAs", dec.Action)
	}
	if dec := p.Decide(site(32)); dec.Action != kernel.Serialize {
		t.Errorf("at threshold: %v, want Serialize", dec.Action)
	}
	if p.Name() != "dtbl-32" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestCTALaunchCheaperThanKernelLaunch(t *testing.T) {
	dec := New(0).Decide(site(10))
	if dec.APICycles >= 40 {
		t.Errorf("DTBL accept cost %d should undercut the kernel launch API", dec.APICycles)
	}
}
