package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// A plant is one minimal defect for one rule, staged into package sim of
// a copy of the module. Exactly one line of its code ends in the marker
// "// plant"; every finding of the census run must land on a marked
// line, so a plant that trips a check anywhere else fails the census.
type plant struct {
	rule    string
	imports []string
	code    string
	// reach, when non-empty, is the statement that makes the plant
	// reachable; from says where it is called: "run" puts it at the top
	// of sim.(GPU).Run, "skip" at the top of the skip root
	// sim.(GPU).nextEvent. Unreached plants leave both empty.
	reach, from string
	// catchers is the exact set of checks that flag the marked line:
	// analyzer names, plus "vet" when go vet does.
	catchers []string
}

const (
	kernelPkg  = "spawnsim/internal/sim/kernel"
	metricsPkg = "spawnsim/internal/metrics"
)

// censusPlants is the defect census: one row per rule of every
// analyzer. Each row's catcher set is what justifies (or would retire)
// the rule: a rule whose every plant another check also catches, within
// a scope that contains its own, proves nothing new.
var censusPlants = []plant{
	// determinism
	{rule: "determinism: global math/rand", imports: []string{"math/rand"}, code: `
func plantGlobalRand() int {
	return rand.Intn(6) // plant
}`, catchers: []string{"determinism"}},
	{rule: "determinism: map range", code: `
func plantMapRange(m map[int]int) int {
	s := 0
	for _, v := range m { // plant
		s += v
	}
	return s
}`, catchers: []string{"determinism"}},
	{rule: "determinism: key collection without a sort", code: `
func plantUnsortedKeys(m map[int]bool) []int {
	var ks []int
	for k := range m { // plant
		ks = append(ks, k)
	}
	return ks
}`, catchers: []string{"determinism"}},

	// hotpath: every plant is reached from sim.(GPU).Run.
	{rule: "hotpath: fmt formatting", imports: []string{"fmt"}, code: `
func (g *GPU) plantFmt() {
	_ = fmt.Sprint(g.rrSMX) // plant
}`, reach: "g.plantFmt()", from: "run", catchers: []string{"hotpath"}},
	{rule: "hotpath: closure", code: `
func (g *GPU) plantClosure() int {
	f := func() int { return g.rrSMX } // plant
	return f()
}`, reach: "g.plantClosure()", from: "run", catchers: []string{"hotpath"}},
	{rule: "hotpath: make(map)", code: `
func (g *GPU) plantMakeMap() {
	_ = make(map[int]int) // plant
}`, reach: "g.plantMakeMap()", from: "run", catchers: []string{"hotpath"}},
	{rule: "hotpath: map literal", code: `
func (g *GPU) plantMapLiteral() {
	_ = map[int]int{} // plant
}`, reach: "g.plantMapLiteral()", from: "run", catchers: []string{"hotpath"}},
	{rule: "hotpath: new(T)", code: `
func (g *GPU) plantNew() {
	_ = new(int) // plant
}`, reach: "g.plantNew()", from: "run", catchers: []string{"hotpath"}},
	{rule: "hotpath: &T{}", code: `
type censusBox struct{ n int }

func (g *GPU) plantAddrLiteral() {
	_ = &censusBox{} // plant
}`, reach: "g.plantAddrLiteral()", from: "run", catchers: []string{"hotpath"}},
	{rule: "hotpath: boxing", code: `
func censusSink(any) {}

func (g *GPU) plantBoxing() {
	censusSink(g.rrSMX) // plant
}`, reach: "g.plantBoxing()", from: "run", catchers: []string{"hotpath"}},
	{rule: "hotpath: unguarded hook", code: `
type censusHooks struct{ onTick func() }

var censusHook censusHooks

func (g *GPU) plantHook() {
	censusHook.onTick() // plant
}`, reach: "g.plantHook()", from: "run", catchers: []string{"hotpath"}},
	{rule: "hotpath: profile call", code: `
func (g *GPU) plantProfileCall() {
	_ = g.prof.Close() // plant
}`, reach: "g.plantProfileCall()", from: "run", catchers: []string{"hotpath"}},
	{rule: "hotpath: //spawnvet:hotpath root", imports: []string{"fmt"}, code: `
//spawnvet:hotpath
func censusMarked() string {
	s := fmt.Sprint(1) // plant
	return s
}`, catchers: []string{"hotpath"}},

	// invariants
	{rule: "invariants: non-invariant panic", code: `
func plantPanic() {
	panic("census") // plant
}`, catchers: []string{"invariants"}},

	// errwrap, and vet's part of error discipline
	{rule: "errwrap: %v on an error", imports: []string{"fmt"}, code: `
func plantFlatten(err error) error {
	return fmt.Errorf("census: %v", err) // plant
}`, catchers: []string{"errwrap"}},
	{rule: "errwrap: == between errors", code: `
func plantErrEqual(a, b error) bool {
	return a == b // plant
}`, catchers: []string{"errwrap"}},
	{rule: "errwrap: message text", code: `
func plantErrText(err error) bool {
	return err.Error() == "census" // plant
}`, catchers: []string{"errwrap"}},
	{rule: "vet: %w on a non-error (no spawnvet rule)", imports: []string{"fmt"}, code: `
func plantWrapNonError() error {
	return fmt.Errorf("census: %w", 1) // plant
}`, catchers: []string{"vet"}},

	// metrics
	{rule: "metrics: non-constant name", imports: []string{metricsPkg}, code: `
func plantMetricName(r *metrics.Registry, name string) {
	_ = r.Counter(name) // plant
}`, catchers: []string{"metrics"}},
	{rule: "metrics: not snake_case", imports: []string{metricsPkg}, code: `
func plantMetricCase(r *metrics.Registry) {
	_ = r.Gauge("CensusGauge") // plant
}`, catchers: []string{"metrics"}},
	{rule: "metrics: unlabeled duplicate", imports: []string{metricsPkg}, code: `
func censusZero() float64 { return 0 }

func plantMetricDup(r *metrics.Registry) {
	r.CounterFunc("census_dup", censusZero)
	r.CounterFunc("census_dup", censusZero) // plant
}`, catchers: []string{"metrics"}},
	{rule: "metrics: discarded handle", imports: []string{metricsPkg}, code: `
func plantMetricDiscard(r *metrics.Registry) {
	r.Counter("census_discarded") // plant
}`, catchers: []string{"metrics"}},
	{rule: "metrics: never written", imports: []string{metricsPkg}, code: `
var censusIdle *metrics.Histogram

func plantMetricUnwritten(r *metrics.Registry) {
	censusIdle = r.Histogram("census_idle") // plant
}`, catchers: []string{"metrics"}},

	// seedtaint
	{rule: "seedtaint: ambient entropy", imports: []string{"math/rand", "time"}, code: `
func plantWallSeed() *rand.Rand {
	s := time.Now().UnixNano()
	return rand.New(rand.NewSource(s)) // plant
}`, catchers: []string{"seedtaint"}},
	{rule: "seedtaint: literal re-seed", imports: []string{"math/rand"}, code: `
func plantLiteralSeed() *rand.Rand {
	return rand.New(rand.NewSource(42)) // plant
}`, catchers: []string{"seedtaint"}},
	{rule: "seedtaint: untraceable origin", imports: []string{"math/rand"}, code: `
func plantOpaqueSeed(n int64) *rand.Rand {
	return rand.New(rand.NewSource(n)) // plant
}`, catchers: []string{"seedtaint"}},
	{rule: "seedtaint: package-level stream", imports: []string{"math/rand"}, code: `
var censusStream *rand.Rand // plant`, catchers: []string{"seedtaint"}},
	{rule: "seedtaint: literal to a seed parameter", code: `
func censusDraw(seed int64) int64 { return seed }

func plantSeedArg() int64 {
	return censusDraw(7) // plant
}`, catchers: []string{"seedtaint"}},
	{rule: "seedtaint: literal to a seed field", code: `
type censusOpts struct{ Seed int64 }

func plantSeedField() censusOpts {
	return censusOpts{Seed: 9} // plant
}`, catchers: []string{"seedtaint"}},

	// exhaustive
	{rule: "exhaustive: enum switch without default", imports: []string{kernelPkg}, code: `
func plantSwitch(k kernel.InstrKind) int {
	switch k { // plant
	case kernel.InstrALU:
		return 1
	}
	return 0
}`, catchers: []string{"exhaustive"}},

	// units
	{rule: "units: Cycle*Cycle", imports: []string{kernelPkg}, code: `
func plantCycleSquare(a, b kernel.Cycle) kernel.Cycle {
	return a * b // plant
}`, catchers: []string{"units"}},
	{rule: "units: cross-unit conversion", imports: []string{kernelPkg}, code: `
func plantCrossUnit(c kernel.Cycle) kernel.Bytes {
	return kernel.Bytes(c) // plant
}`, catchers: []string{"units"}},
	{rule: "units: laundered conversion", imports: []string{kernelPkg}, code: `
func plantLaunder(c kernel.Cycle) kernel.Bytes {
	u := uint64(c)
	return kernel.Bytes(u) // plant
}`, catchers: []string{"units"}},

	// purity: reached from sim.(GPU).Run outside the skip region.
	{rule: "purity: package-level write", code: `
var censusTicks int

func (g *GPU) plantGlobalWrite() {
	censusTicks++ // plant
}`, reach: "g.plantGlobalWrite()", from: "run", catchers: []string{"purity"}},
	{rule: "purity: write through an alias of package state", code: `
var censusTable = []int{0}

func (g *GPU) plantAliasWrite() {
	t := censusTable
	t[0] = 1 // plant
}`, reach: "g.plantAliasWrite()", from: "run", catchers: []string{"purity"}},
	{rule: "purity: ambient I/O", imports: []string{"time"}, code: `
func (g *GPU) plantWallClock() {
	_ = time.Now() // plant
}`, reach: "g.plantWallClock()", from: "run", catchers: []string{"purity"}},
	{rule: "purity: package write of a pointer input", code: `
var censusKept *int

func (g *GPU) plantLeak(p *int) {
	censusKept = p // plant
}`, reach: "g.plantLeak(nil)", from: "run", catchers: []string{"purity"}},

	// Reached from the skip root sim.(GPU).nextEvent. The root lies
	// inside Run's call closure, so purity covers package writes
	// (a retained pointer input included) and ambient I/O there, and
	// skipsafe reports only what purity allows.
	{rule: "purity: package-level write on the skip path", code: `
var censusIdleTicks int

func (g *GPU) plantSkipGlobal() {
	censusIdleTicks++ // plant
}`, reach: "g.plantSkipGlobal()", from: "skip", catchers: []string{"purity"}},
	{rule: "purity: ambient I/O on the skip path", imports: []string{"time"}, code: `
func (g *GPU) plantSkipClock() {
	_ = time.Now() // plant
}`, reach: "g.plantSkipClock()", from: "skip", catchers: []string{"purity"}},
	{rule: "purity: package write of a pointer input on the skip path", code: `
var censusIdleKept *int

func (g *GPU) plantSkipLeak(p *int) {
	censusIdleKept = p // plant
}`, reach: "g.plantSkipLeak(nil)", from: "skip", catchers: []string{"purity"}},
	{rule: "skipsafe: receiver mutation", code: `
func (g *GPU) plantSkipMutate() {
	g.rrSMX++ // plant
}`, reach: "g.plantSkipMutate()", from: "skip", catchers: []string{"skipsafe"}},
	{rule: "skipsafe: goroutine spawn", code: `
func censusWorker() {}

func (g *GPU) plantSkipSpawn() {
	go censusWorker() // plant
}`, reach: "g.plantSkipSpawn()", from: "skip", catchers: []string{"skipsafe"}},
	{rule: "skipsafe: channel send", code: `
var censusEvents chan int

func (g *GPU) plantSkipSend() {
	censusEvents <- 1 // plant
}`, reach: "g.plantSkipSend()", from: "skip", catchers: []string{"skipsafe"}},

	// sharedstate
	{rule: "sharedstate: unguarded write in a spawned closure", imports: []string{"sync"}, code: `
func plantSharedWrite() int {
	n := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n++ // plant
	}()
	wg.Wait()
	return n
}`, catchers: []string{"sharedstate"}},
	{rule: "sharedstate: write after spawn without a barrier", code: `
func plantWriteAfterSpawn() int {
	n := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = n
	}()
	n = 1 // plant
	<-done
	return n
}`, catchers: []string{"sharedstate"}},

	// clockstep
	{rule: "clockstep 1: untraceable Cycle store", code: `
func (g *GPU) plantCycleStore() {
	g.dispWake = 7 // plant
}`, reach: "g.plantCycleStore()", from: "run", catchers: []string{"clockstep"}},
	{rule: "clockstep 1: host clock into a Cycle", imports: []string{"time", kernelPkg}, code: `
func (g *GPU) plantHostStamp(t time.Time) {
	g.dispWake = kernel.Cycle(t.UnixNano()) // plant
}`, reach: "g.plantHostStamp(time.Time{})", from: "run", catchers: []string{"clockstep"}},
	{rule: "clockstep 1: time.Now into a Cycle", imports: []string{"time", kernelPkg}, code: `
func (g *GPU) plantNowStamp() {
	g.dispWake = kernel.Cycle(time.Now().UnixNano()) // plant
}`, reach: "g.plantNowStamp()", from: "run", catchers: []string{"clockstep", "purity"}},
	{rule: "clockstep 2: backwards clock store", code: `
func (g *GPU) plantRewind() {
	restore := g.maxCycles
	if restore < g.clock {
		g.clock = restore // plant
	}
}`, catchers: []string{"clockstep"}},
	{rule: "clockstep 3: fabricated timestamp", imports: []string{kernelPkg}, code: `
func censusStamp(now kernel.Cycle) kernel.Cycle { return now }

func (g *GPU) plantFabricated() {
	_ = censusStamp(0) // plant
}`, reach: "g.plantFabricated()", from: "run", catchers: []string{"clockstep"}},
	{rule: "clockstep 4: stale clock snapshot in a loop", code: `
func (g *GPU) plantStale() {
	start := g.clock
	for g.clock < g.maxCycles {
		g.clock++
		if start >= g.dispWake { // plant
			return
		}
	}
}`, reach: "g.plantStale()", from: "run", catchers: []string{"clockstep"}},

	// directive grammar
	{rule: "directive: unknown analyzer name", code: `
//spawnvet:allow metricshygiene the analyzer is called metrics // plant
func censusAllowed() {}`, catchers: []string{"directive"}},
}

// censusFile is where the plants go, relative to the module root.
const censusFile = "internal/sim/zz_census.go"

// TestPlantCensus stages every plant at once in a copy of the module,
// runs the full suite and go vet over it once each, and pins, for every
// row, the exact set of checks that flag the plant's marked line.
func TestPlantCensus(t *testing.T) {
	root := t.TempDir()
	copyModule(t, filepath.Join("..", ".."), root)

	src, marks := renderPlants(t)
	census := filepath.Join(root, filepath.FromSlash(censusFile))
	if err := os.WriteFile(census, src, 0o644); err != nil {
		t.Fatal(err)
	}
	addCallLines(t, filepath.Join(root, "internal", "sim", "sim.go"))

	vet := startVet(t, root) // runs while the suite loads
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			t.Fatalf("staged module does not type-check: %v", te)
		}
	}

	caught := map[int]map[string]bool{} // marked line -> catchers
	attribute := func(file string, line int, by, what string) {
		row, ok := marks[line]
		if file != census || !ok {
			t.Errorf("finding outside every plant: %s:%d: [%s] %s", file, line, by, what)
			return
		}
		if caught[row] == nil {
			caught[row] = map[string]bool{}
		}
		caught[row][by] = true
	}
	for _, d := range Run(pkgs, Analyzers()) {
		attribute(d.File, d.Line, d.Analyzer, d.Message)
	}
	for _, f := range vet() {
		attribute(f.file, f.line, "vet", f.msg)
	}

	for i, p := range censusPlants {
		var got []string
		for by := range caught[i] {
			got = append(got, by)
		}
		sort.Strings(got)
		want := slices.Clone(p.catchers)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: caught by %v, want %v", p.rule, got, want)
		}
		t.Logf("%-58s %s", p.rule, strings.Join(got, ", "))
	}
}

// renderPlants assembles the census file and maps each marked line to
// its row.
func renderPlants(t *testing.T) ([]byte, map[int]int) {
	t.Helper()
	var imports, run, skip []string
	for _, p := range censusPlants {
		imports = append(imports, p.imports...)
		switch p.from {
		case "run":
			run = append(run, p.reach)
		case "skip":
			skip = append(skip, p.reach)
		}
	}
	var b strings.Builder
	b.WriteString("package sim\n\nimport (\n")
	sort.Strings(imports)
	for _, imp := range slices.Compact(imports) {
		fmt.Fprintf(&b, "\t%q\n", imp)
	}
	b.WriteString(")\n\n")
	fmt.Fprintf(&b, "func (g *GPU) censusRun() {\n\t%s\n}\n\n", strings.Join(run, "\n\t"))
	fmt.Fprintf(&b, "func (g *GPU) censusSkip() {\n\t%s\n}\n", strings.Join(skip, "\n\t"))

	marks := map[int]int{}
	for i, p := range censusPlants {
		if strings.Count(p.code, "// plant") != 1 {
			t.Fatalf("%s: want exactly one // plant marker", p.rule)
		}
		first := strings.Count(b.String(), "\n") + 1 // line of p.code's first line
		for k, l := range strings.Split(p.code, "\n") {
			if strings.HasSuffix(l, "// plant") {
				marks[first+k] = i
			}
		}
		b.WriteString(p.code)
		b.WriteString("\n")
	}
	return []byte(b.String()), marks
}

// addCallLines makes the reached plants reachable: one call at the top
// of sim.(GPU).Run and one at the top of the skip root nextEvent.
func addCallLines(t *testing.T, simGo string) {
	t.Helper()
	src, err := os.ReadFile(simGo)
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []struct{ decl, call string }{
		{"func (g *GPU) Run() (*Result, error) {\n", "\tg.censusRun()\n"},
		{"func (g *GPU) nextEvent(now kernel.Cycle) kernel.Cycle {\n", "\tg.censusSkip()\n"},
	} {
		if !bytes.Contains(src, []byte(site.decl)) {
			t.Fatalf("sim.go no longer declares %q; update the census call sites", strings.TrimSpace(site.decl))
		}
		src = bytes.Replace(src, []byte(site.decl), []byte(site.decl+site.call), 1)
	}
	if err := os.WriteFile(simGo, src, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyModule copies go.mod and every non-test Go file of the module at
// from into to, skipping what the go tool skips (testdata, hidden and
// underscore directories) and nested modules.
func copyModule(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		name := d.Name()
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

type vetFinding struct {
	file string
	line int
	msg  string
}

var vetLine = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)

// startVet starts go vet over the module at root; the returned func
// waits for it and parses its findings.
func startVet(t *testing.T, root string) func() []vetFinding {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOFLAGS=")
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return func() []vetFinding {
		t.Helper()
		return parseVet(t, root, cmd.Wait(), out.Bytes())
	}
}

// parseVet extracts the file:line findings from go vet's output.
func parseVet(t *testing.T, root string, err error, out []byte) []vetFinding {
	t.Helper()
	var found []vetFinding
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := vetLine.FindStringSubmatch(strings.TrimPrefix(sc.Text(), "vet: "))
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		line, _ := strconv.Atoi(m[2])
		found = append(found, vetFinding{file, line, m[3]})
	}
	if err != nil && len(found) == 0 {
		t.Fatalf("go vet failed without findings: %v\n%s", err, out)
	}
	return found
}
