package sim

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"spawnsim/internal/config"
	"spawnsim/internal/profile"
	"spawnsim/internal/runtime"
	"spawnsim/internal/sim/kernel"
)

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", EngineWheel, true},
		{"wheel", EngineWheel, true},
		{"stepped", EngineStepped, true},
		{"event", 0, false},
		{"Wheel", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseEngine(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseEngine(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if EngineWheel.String() != "wheel" || EngineStepped.String() != "stepped" {
		t.Errorf("Engine.String() = %q/%q, want wheel/stepped",
			EngineWheel.String(), EngineStepped.String())
	}
	if _, err := NewChecked(Options{Config: config.K20m(), Policy: runtime.Flat{}, Engine: 7}); err == nil {
		t.Error("NewChecked accepted an out-of-range Engine value")
	}
}

// TestBusyAttributionBeyond64SMXs pins the issuedMask regression: the
// per-SMX busy bookkeeping used to be a uint64 indexed with mi&63, so
// on configs with more than 64 SMXs the profiler attributed smx0's
// issue activity to smx64 (and vice versa). With a single-CTA kernel
// only one SMX ever issues; every other SMX — in particular the
// aliasing candidates at index >= 64 — must report zero busy cycles.
func TestBusyAttributionBeyond64SMXs(t *testing.T) {
	cfg := config.K20m()
	cfg.NumSMX = 65
	prof := profile.New(cfg.NumSMX, profile.Options{})
	g := New(Options{
		Config:    cfg,
		Policy:    runtime.Flat{},
		MaxCycles: 1_000_000,
		Profile:   prof,
	})
	g.LaunchHost(&kernel.Def{
		Name: "solo", GridCTAs: 1, CTAThreads: 64, RegsPerThread: 16,
		NewProgram: aluProgram(50, 2),
	})
	if _, err := g.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := prof.Report()
	busy := map[string]uint64{}
	for _, c := range rep.Components {
		busy[c.Name] = c.Busy
	}
	if busy["smx0"] == 0 {
		t.Fatal("smx0 reports no busy cycles; the solo CTA should have landed there")
	}
	for i := 1; i < cfg.NumSMX; i++ {
		name := "smx" + itoa(i)
		if b, ok := busy[name]; !ok {
			t.Fatalf("profile report has no component %q", name)
		} else if b != 0 {
			t.Errorf("%s reports %d busy cycles with a single-CTA workload (mask aliasing?)", name, b)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestMaxCyclesClampsFastForward pins the fast-forward budget clamp: a
// run whose only pending event lies far past MaxCycles must abort at
// maxCycles+1, not at the distant event, and the profiler must account
// exactly the budgeted cycles (Ticked+Skipped == abort cycle). Checked
// under both engines — the stepped reference walks to the same bound.
func TestMaxCyclesClampsFastForward(t *testing.T) {
	for _, eng := range []Engine{EngineWheel, EngineStepped} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			cfg := config.K20m()
			prof := profile.New(cfg.NumSMX, profile.Options{})
			g := New(Options{
				Config:    cfg,
				Policy:    runtime.Flat{},
				MaxCycles: 1000,
				Profile:   prof,
				Engine:    eng,
			})
			// One warp issues a 500k-cycle ALU op: the machine goes quiet
			// with its next event half a million cycles out.
			g.LaunchHost(&kernel.Def{
				Name: "long", GridCTAs: 1, CTAThreads: 32, RegsPerThread: 16,
				NewProgram: aluProgram(2, 500_000),
			})
			res, err := g.Run()
			if err == nil {
				t.Fatal("run completed under a 1000-cycle budget; want AbortMaxCycles")
			}
			var abort *AbortError
			if !errors.As(err, &abort) {
				t.Fatalf("error = %v (%T), want *AbortError", err, err)
			}
			if abort.Kind != AbortMaxCycles {
				t.Fatalf("abort kind = %v, want %v", abort.Kind, AbortMaxCycles)
			}
			if abort.Cycle != 1001 {
				t.Errorf("abort cycle = %d, want 1001 (fast-forward must clamp to maxCycles+1)", abort.Cycle)
			}
			if res == nil {
				t.Fatal("no partial result alongside the abort")
			}
			if res.Cycles != 1001 {
				t.Errorf("partial result cycles = %d, want 1001", res.Cycles)
			}
			rep := prof.Report()
			if got := rep.Ticked + rep.Skipped; got != 1001 {
				t.Errorf("profiler accounts %d cycles (ticked %d + skipped %d), want 1001",
					got, rep.Ticked, rep.Skipped)
			}
		})
	}
}

// TestInvariantsCatchStaleWakeMirror places a CTA twice on an idle
// machine: once through place, which lowers the SMX's wake slot, and
// once by calling SMX.Place directly, as place would if it skipped that
// refresh. The audit must pass the first and report the second, since a
// stale slot would leave the placed warps unscheduled.
func TestInvariantsCatchStaleWakeMirror(t *testing.T) {
	def := &kernel.Def{
		Name: "short", GridCTAs: 1, CTAThreads: 32, RegsPerThread: 16,
		NewProgram: aluProgram(3, 4),
	}
	for _, skipRefresh := range []bool{false, true} {
		g := New(Options{Config: config.K20m(), Policy: runtime.Flat{}})
		g.LaunchHost(def)
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		// Idle machine past cycle 0: every slot is smx.NoEvent.
		k := g.LaunchHost(def)
		if skipRefresh {
			c := kernel.NewCTA(k, int(k.NextCTA), g.cfg.WarpSize, nil, nil)
			k.NextCTA++
			g.smxs[g.rrSMX].Place(g.clock, c, &g.ageSeq)
		} else if !g.place(k) {
			t.Fatal("place found no room on an idle machine")
		}
		err := g.checkInvariants(g.clock)
		if !skipRefresh {
			if err != nil {
				t.Fatalf("audit after place: %v", err)
			}
			continue
		}
		var inv *kernel.InvariantError
		if !errors.As(err, &inv) || !strings.Contains(inv.Error(), "wake mirror") {
			t.Fatalf("audit after a Place that skipped the refresh = %v, want a wake-mirror InvariantError", err)
		}
	}
}

// TestInvariantsCatchUseAfterRelease stops a Baseline-DP run while
// children are in launch flight, then plants one premature release per
// case: the launching CTA, the in-flight kernel, the parent's host
// kernel, the launching CTA released and then reused for another CTA,
// and the launching warp released to its Def's warp free list, alone
// and then reused by a new CTA. The audit must pass the untouched
// machine and report every planted release, through whichever holder
// still points at the object.
func TestInvariantsCatchUseAfterRelease(t *testing.T) {
	cases := []struct {
		name  string
		plant func(g *GPU, it flightItem)
	}{
		{"launching CTA", func(g *GPU, it flightItem) { g.releaseCTA(it.k.Parent) }},
		{"in-flight kernel", func(g *GPU, it flightItem) { it.k.MarkReleased() }},
		{"host kernel", func(g *GPU, it flightItem) { it.k.Parent.Kernel.MarkReleased() }},
		{"reused CTA", func(g *GPU, it flightItem) {
			c := it.k.Parent
			g.releaseCTA(c)
			if g.newCTA(c.Kernel, 0) != c {
				t.Fatal("the released CTA was not reused")
			}
		}},
		{"launching warp", func(g *GPU, it flightItem) { g.releaseWarp(it.warp) }},
		{"reused warp", func(g *GPU, it flightItem) {
			g.releaseWarp(it.warp)
			if c := g.newCTA(it.warp.CTA.Kernel, 0); c.Warps[0] != it.warp {
				t.Fatal("the released warp was not reused")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := New(Options{Config: config.K20m(), Policy: runtime.Threshold{T: 0}, MaxCycles: 3_000})
			g.LaunchHost(dpParent(512, 64, 50, 4))
			var abort *AbortError
			if _, err := g.Run(); !errors.As(err, &abort) || abort.Kind != AbortMaxCycles {
				t.Fatalf("Run = %v, want a max-cycles abort", err)
			}
			if err := g.checkInvariants(g.clock); err != nil {
				t.Fatalf("audit before the plant: %v", err)
			}
			if len(g.flight) == 0 || g.flight[0].warp == nil {
				t.Fatal("no device launch in flight at the abort")
			}
			tc.plant(g, g.flight[0])
			err := g.checkInvariants(g.clock)
			var inv *kernel.InvariantError
			if !errors.As(err, &inv) || !strings.Contains(inv.Error(), "released") && !strings.Contains(inv.Error(), "stale") {
				t.Fatalf("audit after releasing the %s = %v, want a released/stale InvariantError", tc.name, err)
			}
			t.Log(err)
		})
	}
}

// TestSuspendedCTAsHandBackWarps runs a nested launch whose parent CTAs
// suspend at their sync with two launches per warp in flight. While the
// launches fly, each shell keeps exactly the warps a flight item names;
// once they land, with the children still running, the shells hold no
// warp and the warps wait on the parent Def's free list. A shell that
// keeps a landed warp must fail the audit.
func TestSuspendedCTAsHandBackWarps(t *testing.T) {
	def := dpParentLanes(512, 64, 2_000, 4, 2)
	g := New(Options{Config: config.K20m(), Policy: runtime.Threshold{T: 0}, MaxCycles: 5_000})
	g.LaunchHost(def)
	resume := func(until kernel.Cycle) {
		t.Helper()
		g.maxCycles = until
		var abort *AbortError
		if _, err := g.Run(); !errors.As(err, &abort) || abort.Kind != AbortMaxCycles {
			t.Fatalf("Run = %v, want a max-cycles abort at %d", err, until)
		}
		if err := g.checkInvariants(g.clock); err != nil {
			t.Fatalf("audit at cycle %d: %v", g.clock, err)
		}
	}
	resume(5_000)
	shells := map[*kernel.CTA]uint32{}
	for _, it := range g.flight {
		p := it.k.Parent
		if p.State != kernel.CTAWaitingSync {
			t.Fatalf("parent CTA %d in state %d with its launches in flight, want suspended", p.Index, p.State)
		}
		if !slices.Contains(p.Warps, it.warp) {
			t.Fatalf("shell %d dropped warp %d with a launch in flight", p.Index, it.warp.Index)
		}
		shells[p] = p.Gen
	}
	if len(shells) == 0 {
		t.Fatal("no suspended CTA at cycle 5,000")
	}
	// Every launch lands by cycle 24,000; a child runs 8,000 cycles.
	resume(30_000)
	if len(g.flight) != 0 {
		t.Fatalf("%d launches still in flight at cycle 30,000", len(g.flight))
	}
	var shell *kernel.CTA
	for p, gen := range shells {
		if p.State != kernel.CTAWaitingSync || p.Gen != gen || p.OutstandingChildren == 0 {
			t.Fatalf("shell %d: state %d, gen %d (was %d), %d children; want still waiting", p.Index, p.State, p.Gen, gen, p.OutstandingChildren)
		}
		if len(p.Warps) != 0 {
			t.Errorf("shell %d holds %d warps after every launch landed", p.Index, len(p.Warps))
		}
		shell = p
	}
	free := g.freeOf(def).warps
	if want := len(shells) * def.WarpsPerCTA(g.cfg.WarpSize); len(free) != want {
		t.Errorf("parent Def's warp free list holds %d warps, want %d", len(free), want)
	}
	// Plant the warp the engine would keep if processArrivals did not
	// hand it back.
	w := free[len(free)-1]
	w.Released, w.CTA = false, shell
	shell.Warps = append(shell.Warps, w)
	err := g.checkInvariants(g.clock)
	var inv *kernel.InvariantError
	if !errors.As(err, &inv) || !strings.Contains(err.Error(), "suspended CTA") {
		t.Fatalf("audit with a landed warp on a shell = %v, want a suspended-CTA InvariantError", err)
	}
	t.Log(err)
}
