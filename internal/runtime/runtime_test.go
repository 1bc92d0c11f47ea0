package runtime

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

func TestFlat(t *testing.T) {
	p := Flat{}
	if p.Name() != "flat" {
		t.Error("bad name")
	}
	dec := p.Decide(site(1 << 20))
	if dec.Action != kernel.Serialize || dec.APICycles != 0 {
		t.Errorf("flat decision = %+v, want free serialize", dec)
	}
}

func TestThreshold(t *testing.T) {
	p := Threshold{T: 64}
	if dec := p.Decide(site(64)); dec.Action != kernel.Serialize {
		t.Errorf("workload == T should serialize, got %v", dec.Action)
	}
	if dec := p.Decide(site(65)); dec.Action != kernel.LaunchKernel {
		t.Errorf("workload > T should launch, got %v", dec.Action)
	}
	if dec := p.Decide(site(65)); dec.APICycles != AcceptCycles {
		t.Errorf("accept cost = %d, want %d", dec.APICycles, AcceptCycles)
	}
	if dec := p.Decide(site(1)); dec.APICycles != DeclineCycles {
		t.Errorf("decline cost = %d, want %d", dec.APICycles, DeclineCycles)
	}
	if (Threshold{T: 5}).Name() != "threshold-5" {
		t.Error("bad name")
	}
}
