package main

import (
	"fmt"

	"spawnsim/internal/config"
	spawn "spawnsim/internal/core"
	"spawnsim/internal/dtbl"
	"spawnsim/internal/inputs"
	dp "spawnsim/internal/runtime"
	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
	"spawnsim/internal/workloads"
)

// Table I input sizes, copied from internal/workloads (unexported there,
// and the registry fixes the seeds, so the benchmark cannot reuse it).
// TestTableIMatchesRegistry pins the copy: at the default seed every app
// equals workloads.ByName(b).Make().
const (
	citationN   = 65536
	citationDeg = 8
	g500Scale   = 16
	g500Deg     = 10
	joinN       = 32768
	joinMatches = 48
	mandelPix   = 131072
	mandelIter  = 256
	mandelRgn   = 128
	mmSmallN    = 2048
	mmSmallCols = 64
	mmLargeN    = 4096
	mmLargeCols = 128
	saReadsN    = 16384
	amrCells    = 16384
)

// defaultSeed is the registry's seed base: -seed 100 reproduces Table I.
const defaultSeed = 100

// entry is one Table I benchmark. gen draws the input from seed slot
// base+k, as workloads.Registry does from base 100, and returns the app
// constructor over that input; input and ctor name the two calls in spans.
type entry struct {
	name, input, ctor string
	gen               func(base int64) func() *workloads.App
}

var tableI = []entry{
	// The AMR mesh is six random Gaussian bumps, so its total work varies
	// twofold between seeds (355k to 730k items over seeds 1 to 12) and
	// its DTBL op time from 1.3 to 5.1 s. Drawn per seed it would make
	// every timing spread measure which mesh was drawn, so every run uses
	// the Table I mesh, as every run uses the one Mandel grid.
	{"AMR", "inputs.NewAMRMesh", "workloads.NewAMR", func(int64) func() *workloads.App {
		m := inputs.NewAMRMesh(amrCells, defaultSeed+9)
		return func() *workloads.App { return workloads.NewAMR(m) }
	}},
	{"BFS-citation", "inputs.Citation", "workloads.NewBFS", func(s int64) func() *workloads.App {
		g := inputs.Citation(citationN, citationDeg, s+1)
		return func() *workloads.App { return workloads.NewBFS(g) }
	}},
	{"BFS-graph500", "inputs.Graph500", "workloads.NewBFS", func(s int64) func() *workloads.App {
		g := inputs.Graph500(g500Scale, g500Deg, s+2)
		return func() *workloads.App { return workloads.NewBFS(g) }
	}},
	{"SSSP-citation", "inputs.Citation", "workloads.NewSSSP", func(s int64) func() *workloads.App {
		g := inputs.Citation(citationN, citationDeg, s+1)
		return func() *workloads.App { return workloads.NewSSSP(g) }
	}},
	{"SSSP-graph500", "inputs.Graph500", "workloads.NewSSSP", func(s int64) func() *workloads.App {
		g := inputs.Graph500(g500Scale, g500Deg, s+2)
		return func() *workloads.App { return workloads.NewSSSP(g) }
	}},
	{"JOIN-uniform", "inputs.UniformRelation", "workloads.NewJoin", func(s int64) func() *workloads.App {
		r := inputs.UniformRelation(joinN, joinMatches, s+3)
		return func() *workloads.App { return workloads.NewJoin("join-uniform", r) }
	}},
	{"JOIN-gaussian", "inputs.GaussianRelation", "workloads.NewJoin", func(s int64) func() *workloads.App {
		r := inputs.GaussianRelation(joinN, joinMatches, 14, s+4)
		return func() *workloads.App { return workloads.NewJoin("join-gaussian", r) }
	}},
	{"GC-citation", "inputs.Citation", "workloads.NewGC", func(s int64) func() *workloads.App {
		g := inputs.Citation(citationN, citationDeg, s+1)
		return func() *workloads.App { return workloads.NewGC(g) }
	}},
	{"GC-graph500", "inputs.Graph500", "workloads.NewGC", func(s int64) func() *workloads.App {
		g := inputs.Graph500(g500Scale, g500Deg, s+2)
		return func() *workloads.App { return workloads.NewGC(g) }
	}},
	{"Mandel", "inputs.NewMandelGrid", "workloads.NewMandel", func(int64) func() *workloads.App {
		g := inputs.NewMandelGrid(mandelPix, mandelIter)
		return func() *workloads.App { return workloads.NewMandel(g, mandelRgn) }
	}},
	{"MM-small", "inputs.NewSparseMatrix", "workloads.NewMM", func(s int64) func() *workloads.App {
		m := inputs.NewSparseMatrix(mmSmallN, mmSmallCols, 8, s+5)
		return func() *workloads.App { return workloads.NewMM(m) }
	}},
	{"MM-large", "inputs.NewSparseMatrix", "workloads.NewMM", func(s int64) func() *workloads.App {
		m := inputs.NewSparseMatrix(mmLargeN, mmLargeCols, 10, s+6)
		return func() *workloads.App { return workloads.NewMM(m) }
	}},
	{"SA-thaliana", "inputs.ThalianaReads", "workloads.NewSA", func(s int64) func() *workloads.App {
		r := inputs.ThalianaReads(saReadsN, s+7)
		return func() *workloads.App { return workloads.NewSA("sa-thaliana", r) }
	}},
}

func lookup(name string) (*entry, error) {
	for i := range tableI {
		if tableI[i].name == name {
			return &tableI[i], nil
		}
	}
	return nil, fmt.Errorf("unknown benchmark %q", name)
}

// workload is one launch scheme over a fixed benchmark list.
type workload struct {
	name    string
	benches []string
	policy  func(app *workloads.App, cfg config.GPU) kernel.Policy
	// observed attaches a metrics registry, a JSONL trace sink and the
	// profiler to every op, the way spawnsim -metrics-out -trace-out runs.
	observed bool
	// identity checks what the scheme guarantees about any Result.
	identity func(app *workloads.App, r *sim.Result) error
	// passSeconds is one pass's wall time on the reference host (2-core
	// Xeon). A run makes seconds/passSeconds timed passes, a count fixed
	// by its arguments, so every run's percentiles rank the same samples.
	passSeconds float64
}

// dpBenches serves the three scheme workloads: the same inputs under Flat,
// Threshold and DTBL, so their differences isolate the launch path.
var dpBenches = []string{"AMR", "BFS-citation", "SSSP-citation", "GC-citation",
	"JOIN-uniform", "JOIN-gaussian", "Mandel", "MM-small"}

var suite = []workload{
	{
		name:        "parent-only",
		benches:     dpBenches,
		policy:      func(*workloads.App, config.GPU) kernel.Policy { return dp.Flat{} },
		passSeconds: 2.65,
		identity: func(_ *workloads.App, r *sim.Result) error {
			if r.ChildKernels != 0 || r.DTBLGroups != 0 || r.OffloadedFraction != 0 {
				return fmt.Errorf("flat launched children: %d kernels, %d groups, offload %v",
					r.ChildKernels, r.DTBLGroups, r.OffloadedFraction)
			}
			return nil
		},
	},
	{
		name:    "baseline-dp",
		benches: dpBenches,
		policy: func(app *workloads.App, _ config.GPU) kernel.Policy {
			return dp.Threshold{T: app.DefaultThreshold}
		},
		passSeconds: 2.5,
		identity: func(app *workloads.App, r *sim.Result) error {
			// Nested launches (AMR) offer candidates beyond the parents',
			// so only single-level apps must hit the static fraction.
			if app.Nest != nil {
				return nil
			}
			if want := app.OffloadFractionAt(app.DefaultThreshold); r.OffloadedFraction != want {
				return fmt.Errorf("offloaded %v, threshold %d implies %v",
					r.OffloadedFraction, app.DefaultThreshold, want)
			}
			return nil
		},
	},
	{
		name:        "dtbl-aggregate",
		benches:     dpBenches,
		policy:      func(app *workloads.App, _ config.GPU) kernel.Policy { return dtbl.New(app.DefaultThreshold) },
		passSeconds: 3.7,
		identity: func(_ *workloads.App, r *sim.Result) error {
			if r.ChildKernels != 0 {
				return fmt.Errorf("dtbl launched %d child kernels", r.ChildKernels)
			}
			return nil
		},
	},
	{
		name: "spawn-observed",
		benches: []string{"BFS-graph500", "GC-graph500", "AMR", "BFS-citation",
			"SSSP-citation", "JOIN-gaussian", "Mandel", "MM-small"},
		policy:      func(_ *workloads.App, cfg config.GPU) kernel.Policy { return spawn.New(cfg) },
		observed:    true,
		passSeconds: 3.2,
		identity:    func(*workloads.App, *sim.Result) error { return nil },
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range suite {
		if suite[i].name == name {
			return &suite[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
