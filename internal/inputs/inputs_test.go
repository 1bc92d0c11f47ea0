package inputs

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestLayoutDisjoint(t *testing.T) {
	l := NewLayout()
	a := l.Alloc(100)
	b := l.Alloc(5000)
	c := l.Alloc(1)
	if a == 0 {
		t.Error("base should be non-zero")
	}
	if b < a+100 {
		t.Error("regions overlap")
	}
	if c < b+5000 {
		t.Error("regions overlap")
	}
	if a%regionAlign != 0 || b%regionAlign != 0 {
		t.Error("regions unaligned")
	}
}

func TestCitationDeterministicAndSkewed(t *testing.T) {
	g1 := Citation(2000, 8, 42)
	g2 := Citation(2000, 8, 42)
	if g1.Edges() != g2.Edges() {
		t.Fatal("not deterministic")
	}
	if g1.N != 2000 {
		t.Fatalf("N = %d", g1.N)
	}
	// Power-law: max degree far exceeds the mean.
	mean := float64(g1.Edges()) / float64(g1.N)
	if float64(g1.MaxDegree()) < 5*mean {
		t.Errorf("max degree %d vs mean %.1f: not skewed", g1.MaxDegree(), mean)
	}
	// Different seed -> different graph.
	g3 := Citation(2000, 8, 43)
	if g3.Edges() == g1.Edges() && g3.MaxDegree() == g1.MaxDegree() {
		t.Log("warning: different seeds produced identical summary stats")
	}
}

func TestCitationCSRConsistency(t *testing.T) {
	g := Citation(500, 6, 7)
	if len(g.RowPtr) != g.N+1 {
		t.Fatalf("RowPtr length %d", len(g.RowPtr))
	}
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v] > g.RowPtr[v+1] {
			t.Fatalf("RowPtr not monotone at %d", v)
		}
	}
	if int(g.RowPtr[g.N]) != len(g.Adj) {
		t.Fatalf("RowPtr[N]=%d != len(Adj)=%d", g.RowPtr[g.N], len(g.Adj))
	}
	for _, u := range g.Adj {
		if u < 0 || int(u) >= g.N {
			t.Fatalf("edge target %d out of range", u)
		}
	}
}

func TestGraph500Shape(t *testing.T) {
	g := Graph500(10, 8, 1)
	if g.N != 1024 {
		t.Fatalf("N = %d, want 1024", g.N)
	}
	if g.Edges() != 1024*8 {
		t.Fatalf("edges = %d, want %d", g.Edges(), 1024*8)
	}
	// R-MAT skew: top-1% vertices should hold a large share of edges.
	degs := make([]int, g.N)
	for v := range degs {
		degs[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	top := 0
	for _, d := range degs[:g.N/100] {
		top += d
	}
	if float64(top) < 0.1*float64(g.Edges()) {
		t.Errorf("top-1%% vertices hold %d/%d edges: insufficient skew", top, g.Edges())
	}
	// CSR consistency.
	sum := 0
	for v := 0; v < g.N; v++ {
		sum += g.Degree(v)
	}
	if sum != g.Edges() {
		t.Errorf("degree sum %d != edges %d", sum, g.Edges())
	}
}

func TestUniformRelationBalanced(t *testing.T) {
	r := UniformRelation(1000, 50, 3)
	for i, m := range r.Matches {
		if m < 49-1 || m > 51 {
			t.Fatalf("tuple %d has %d matches, want ~50", i, m)
		}
	}
}

func TestGaussianRelationSpread(t *testing.T) {
	r := GaussianRelation(5000, 60, 25, 3)
	mean, varsum := 0.0, 0.0
	for _, m := range r.Matches {
		mean += float64(m)
	}
	mean /= float64(r.N)
	for _, m := range r.Matches {
		d := float64(m) - mean
		varsum += d * d
	}
	sd := math.Sqrt(varsum / float64(r.N))
	if mean < 50 || mean > 70 {
		t.Errorf("mean = %.1f, want ~60", mean)
	}
	if sd < 15 || sd > 35 {
		t.Errorf("sd = %.1f, want ~25", sd)
	}
}

func TestSparseMatrixSkewAndCSR(t *testing.T) {
	m := NewSparseMatrix(1000, 64, 12, 9)
	total := 0
	maxN := 0
	for i, v := range m.NNZ {
		if v < 0 {
			t.Fatalf("negative nnz at %d", i)
		}
		total += v
		if v > maxN {
			maxN = v
		}
	}
	if len(m.ColIdx) != total {
		t.Fatalf("ColIdx length %d != nnz total %d", len(m.ColIdx), total)
	}
	if float64(maxN) < 4*float64(total)/float64(m.Rows) {
		t.Errorf("max nnz %d vs mean %.1f: not skewed", maxN, float64(total)/float64(m.Rows))
	}
	if m.RowStart(0) != 0 {
		t.Error("RowStart(0) != 0")
	}
	if int(m.RowStart(m.Rows-1))+m.NNZ[m.Rows-1] != total {
		t.Error("last row does not end at nnz total")
	}
}

func TestReadsHeavyTail(t *testing.T) {
	r := ThalianaReads(4000, 5)
	sorted := append([]int(nil), r.Candidates...)
	sort.Ints(sorted)
	median := sorted[len(sorted)/2]
	p99 := sorted[len(sorted)*99/100]
	if p99 < 5*median {
		t.Errorf("p99 %d vs median %d: tail too light for thaliana profile", p99, median)
	}
	e := ElegansReads(4000, 5)
	if e.N != 4000 || e.MatchIters != 8 {
		t.Error("elegans profile misconfigured")
	}
}

func TestAMRMeshFronts(t *testing.T) {
	m := NewAMRMesh(4096, 11)
	zero, heavy := 0, 0
	for _, r := range m.Refine {
		if r == 0 {
			zero++
		}
		if r > 40 {
			heavy++
		}
	}
	if zero < m.N/4 {
		t.Errorf("only %d/%d cells quiescent; fronts should be localized", zero, m.N)
	}
	if heavy == 0 {
		t.Error("no heavily refined cells; flame fronts missing")
	}
}

func TestMandelGridBoundary(t *testing.T) {
	g := NewMandelGrid(4096, 512)
	inSet, fast := 0, 0
	for _, it := range g.Iters {
		if it == g.MaxIter {
			inSet++
		}
		if it < 32 {
			fast++
		}
	}
	if inSet == 0 {
		t.Error("no pixels reach max iterations; region misses the set")
	}
	if fast == 0 {
		t.Error("no fast-escaping pixels; region entirely inside the set")
	}
}

// Property: all generators produce structures with non-negative
// workloads and consistent lengths for arbitrary small sizes/seeds.
func TestGeneratorsWellFormedProperty(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%500 + 10
		g := Citation(n, 4, seed)
		if g.N != n || len(g.RowPtr) != n+1 {
			return false
		}
		r := GaussianRelation(n, 10, 5, seed)
		for _, m := range r.Matches {
			if m < 0 {
				return false
			}
		}
		sm := NewSparseMatrix(n, 16, 6, seed)
		for _, v := range sm.NNZ {
			if v < 0 {
				return false
			}
		}
		rd := ThalianaReads(n, seed)
		for _, c := range rd.Candidates {
			if c < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// refGraph500 is Graph500 as first written, with a float draw and a
// four-way switch per quadrant pick; Graph500 must match it exactly.
func refGraph500(scale, edgeFactor int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := n * edgeFactor
	const a, b, c = 0.57, 0.19, 0.19
	const maxDeg = 1024
	deg := make([]int, n)
	src := make([]int32, m)
	dst := make([]int32, m)
	for e := 0; e < m; e++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if deg[u] >= maxDeg {
			u = rng.Intn(n)
		}
		src[e] = int32(u)
		dst[e] = int32(v)
		deg[u]++
	}
	g := &Graph{N: n, RowPtr: make([]int32, n+1)}
	total := 0
	for v := 0; v < n; v++ {
		g.RowPtr[v] = int32(total)
		total += deg[v]
	}
	g.RowPtr[n] = int32(total)
	g.Adj = make([]int32, total)
	fill := make([]int32, n)
	for e := 0; e < m; e++ {
		u := src[e]
		g.Adj[g.RowPtr[u]+fill[u]] = dst[e]
		fill[u]++
	}
	layoutGraph(g)
	return g
}

// refCitation is Citation as first written, on math/rand's own
// source; Citation must match it exactly.
func refCitation(n, avgDeg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	alpha := 2.1
	xm := float64(avgDeg) * (alpha - 1) / alpha
	if xm < 1 {
		xm = 1
	}
	maxDeg := 128
	if maxDeg > n/4 {
		maxDeg = n / 4
	}
	deg := make([]int, n)
	for v := range deg {
		u := rng.Float64()
		d := int(xm * math.Pow(1-u, -1/alpha))
		if d > maxDeg {
			d = maxDeg
		}
		deg[v] = d
	}
	g := &Graph{N: n, RowPtr: make([]int32, n+1)}
	total := 0
	for v, d := range deg {
		g.RowPtr[v] = int32(total)
		total += d
	}
	g.RowPtr[n] = int32(total)
	g.Adj = make([]int32, total)
	for i := range g.Adj {
		g.Adj[i] = int32(rng.Intn(n))
	}
	layoutGraph(g)
	return g
}

// refMandelGrid is NewMandelGrid as first written, one pixel at a
// time; NewMandelGrid must match it exactly.
func refMandelGrid(n, maxIter int) *MandelGrid {
	g := &MandelGrid{N: n, Iters: make([]int, n), MaxIter: maxIter}
	side := int(math.Sqrt(float64(n)))
	if side < 1 {
		side = 1
	}
	for i := range g.Iters {
		px, py := i%side, i/side
		cr := -0.78 + 0.06*float64(px)/float64(side)
		ci := 0.10 + 0.06*float64(py)/float64(side)
		zr, zi := 0.0, 0.0
		it := 0
		for ; it < maxIter && zr*zr+zi*zi < 4; it++ {
			zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
		}
		g.Iters[i] = it
	}
	l := NewLayout()
	g.OutBase = l.Alloc(4 * n)
	return g
}

// refAMRMesh is NewAMRMesh as first written, one cell after another on
// math/rand's own source; NewAMRMesh must match it exactly.
func refAMRMesh(n int, seed int64) *AMRMesh {
	rng := rand.New(rand.NewSource(seed))
	m := &AMRMesh{N: n, Refine: make([]int, n), SubFrac: 0.125, SubWork: 16}
	type bump struct{ c, w, h float64 }
	bumps := make([]bump, 6)
	for i := range bumps {
		bumps[i] = bump{c: rng.Float64(), w: 0.01 + rng.Float64()*0.05, h: 20 + rng.Float64()*120}
	}
	for i := range m.Refine {
		x := float64(i) / float64(n)
		v := 0.0
		for _, b := range bumps {
			d := (x - b.c) / b.w
			v += b.h * math.Exp(-d*d)
		}
		m.Refine[i] = int(v)
	}
	l := NewLayout()
	m.CellBase = l.Alloc(32 * n)
	m.SubBase = l.Alloc(32 * n * 8)
	m.OutBase = l.Alloc(32 * n)
	return m
}

func TestGraph500MatchesReference(t *testing.T) {
	var seeds []int64
	for s := int64(1); s <= 12; s++ {
		seeds = append(seeds, s)
	}
	for s := int64(100); s <= 112; s++ {
		seeds = append(seeds, s)
	}
	for _, scale := range []int{1, 2, 8, 12, 16} {
		for _, ef := range []int{1, 10} {
			for _, seed := range seeds {
				got, want := Graph500(scale, ef, seed), refGraph500(scale, ef, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Graph500(%d, %d, %d) differs from the reference", scale, ef, seed)
				}
			}
		}
	}
}

// TestSourceMatchesMathRand pins source to math/rand: the raw stream
// over several blocks, the methods the generators call on it directly,
// and rand.Rand's methods on top of it.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 7, math.MaxInt64, math.MinInt64}
	for s := int64(100); s <= 112; s++ {
		seeds = append(seeds, s)
	}
	// Powers of two take the mask branch, the others the rejection
	// branch, which rejects about half the draws at 1<<30 + 1 and
	// 1<<62 + 1; 1<<31 and above take Intn's Int63n branch.
	ns := []int{1, 2, 3, 5, 1000, 1 << 16, 65537, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, 3 << 40, 1<<62 + 1, math.MaxInt64}
	const draws = 5 * streamLag
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for i := range draws {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 #%d = %d, want %d", seed, i, g, w)
			}
		}

		// The direct methods, interleaved so that rejections and
		// redraws shift every later draw.
		src, ref := newSource(seed), rand.New(rand.NewSource(seed))
		for i := range draws {
			n := ns[i%len(ns)]
			if g, w := src.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, i, g, w)
			}
			if g, w := src.Intn(n), ref.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) #%d = %d, want %d", seed, n, i, g, w)
			}
			if g, w := src.Int63n(int64(n)), ref.Int63n(int64(n)); g != w {
				t.Fatalf("seed %d: Int63n(%d) #%d = %d, want %d", seed, n, i, g, w)
			}
			if n <= math.MaxInt32 {
				if g, w := src.Int31n(int32(n)), ref.Int31n(int32(n)); g != w {
					t.Fatalf("seed %d: Int31n(%d) #%d = %d, want %d", seed, n, i, g, w)
				}
			}
		}

		// rand.Rand's methods on top of the source.
		r, ref := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
		for i := range draws {
			n := ns[i%len(ns)]
			if g, w := r.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d: rand.New(src).Float64 #%d = %v, want %v", seed, i, g, w)
			}
			if g, w := r.Intn(n), ref.Intn(n); g != w {
				t.Fatalf("seed %d: rand.New(src).Intn(%d) #%d = %d, want %d", seed, n, i, g, w)
			}
			if g, w := r.Int63n(int64(n)), ref.Int63n(int64(n)); g != w {
				t.Fatalf("seed %d: rand.New(src).Int63n(%d) #%d = %d, want %d", seed, n, i, g, w)
			}
			if g, w := r.NormFloat64(), ref.NormFloat64(); g != w {
				t.Fatalf("seed %d: rand.New(src).NormFloat64 #%d = %v, want %v", seed, i, g, w)
			}
			if g, w := r.ExpFloat64(), ref.ExpFloat64(); g != w {
				t.Fatalf("seed %d: rand.New(src).ExpFloat64 #%d = %v, want %v", seed, i, g, w)
			}
		}
		if g, w := r.Perm(1000), ref.Perm(1000); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: rand.New(src).Perm differs", seed)
		}
		if g, w := r.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("seed %d: rand.New(src).Uint64 after Perm = %d, want %d", seed, g, w)
		}
	}
}

func TestCitationMatchesReference(t *testing.T) {
	var seeds []int64
	for s := int64(1); s <= 12; s++ {
		seeds = append(seeds, s)
	}
	for s := int64(100); s <= 112; s++ {
		seeds = append(seeds, s)
	}
	// n below 4 caps every degree at 0; n that is not a power of two
	// takes Intn's rejection branch.
	for _, n := range []int{1, 2, 3, 4, 5, 1000, 4099, 65536} {
		for _, deg := range []int{1, 8} {
			for _, seed := range seeds {
				got, want := Citation(n, deg, seed), refCitation(n, deg, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Citation(%d, %d, %d) differs from the reference", n, deg, seed)
				}
			}
		}
	}
}

func TestMandelGridMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 4097, 131072, 262144} {
		for _, maxIter := range []int{0, 1, 64, 256, 1000, 5000} {
			got, want := NewMandelGrid(n, maxIter), refMandelGrid(n, maxIter)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("NewMandelGrid(%d, %d) differs from the reference", n, maxIter)
			}
		}
	}
}

func TestAMRMeshMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 4097, 16384, 65536} {
		for _, seed := range []int64{1, 7, 42, 109} {
			got, want := NewAMRMesh(n, seed), refAMRMesh(n, seed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("NewAMRMesh(%d, %d) differs from the reference", n, seed)
			}
		}
	}
}

// TestWorkerRangesCoverOnce checks that parallelFor hands every index
// of [0, n) to exactly one call, in ranges that are not empty, for
// more workers than indices too, and that one worker gets the whole
// range inline.
func TestWorkerRangesCoverOnce(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for w := 0; w <= 9; w++ {
			hits := make([]int, n)
			calls := make([]int, n+1)
			parallelFor(n, w, func(lo, hi int) {
				if lo >= hi && n > 0 {
					t.Errorf("n=%d workers=%d: empty range [%d, %d)", n, w, lo, hi)
				}
				if lo < n {
					calls[lo]++ // each call owns its lo
				}
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, w, i, h)
				}
			}
			ranges := 0
			for _, c := range calls {
				ranges += c
			}
			if want := max(1, min(w, n)); n > 0 && ranges != want {
				t.Errorf("n=%d workers=%d: %d ranges, want %d", n, w, ranges, want)
			}
		}
	}
	if w := workers(minChunk - 1); w != 1 {
		t.Errorf("workers(%d) = %d, want 1: below one chunk runs inline", minChunk-1, w)
	}
	if w, p := workers(1<<30), runtime.GOMAXPROCS(0); w != p {
		t.Errorf("workers(1<<30) = %d, want GOMAXPROCS = %d", w, p)
	}
}

// TestParallelGeneratorsWorkerInvariant requires each generator with a
// parallel element loop to equal its one-element-at-a-time reference at
// 1, 2, 3 and 7 workers, including n below the worker count and n that
// the worker count does not divide.
func TestParallelGeneratorsWorkerInvariant(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7} {
		for _, n := range []int{1, 2, 3, 10, 1000, 4097, 131072} {
			for _, maxIter := range []int{0, 1, 256} {
				if got, want := newMandelGrid(n, maxIter, w), refMandelGrid(n, maxIter); !reflect.DeepEqual(got, want) {
					t.Fatalf("newMandelGrid(%d, %d) at %d workers differs from the reference", n, maxIter, w)
				}
			}
		}
		for _, n := range []int{1, 2, 3, 5, 1000, 4099, 65536} {
			for _, seed := range []int64{7, 101} {
				if got, want := citation(n, citationDeg, seed, w), refCitation(n, citationDeg, seed); !reflect.DeepEqual(got, want) {
					t.Fatalf("citation(%d, %d, %d) at %d workers differs from the reference", n, citationDeg, seed, w)
				}
			}
		}
		for _, n := range []int{1, 2, 3, 1000, 4097, 16384} {
			for _, seed := range []int64{7, 109} {
				if got, want := newAMRMesh(n, seed, w), refAMRMesh(n, seed); !reflect.DeepEqual(got, want) {
					t.Fatalf("newAMRMesh(%d, %d) at %d workers differs from the reference", n, seed, w)
				}
			}
		}
	}
}

// TestPowNegMatchesPow pins Citation's Pareto transform to the
// math.Pow form it replaces, xm * math.Pow(1-u, -1/alpha) capped at
// maxDeg, bit for bit. The identity holds because math.Pow's pure-Go
// body, for a base in (0, 1) and an exponent y with |y| < 0.5 that is
// not an integer, splits |y| by Modf into integer part 0 and fraction
// |y| (exact, as is negating 1/alpha), computes a1 = Exp(|y|*Log(x))
// through the same exported Exp and Log, runs its squaring loop zero
// times (Frexp's result is unused), sets a1 = 1/a1 for y < 0 and
// returns Ldexp(a1, 0), which is a1 for every normal a1. Base 1 (u = 0)
// hits Pow's Pow(1, y) = 1 special case, which Exp(0) = 1 matches. Only
// s390x replaces that body with an assembly archPow, and this test
// would fail there.
func TestPowNegMatchesPow(t *testing.T) {
	const alpha = 2.1 // Citation's exponent
	xm := float64(citationDeg) * (alpha - 1) / alpha
	const maxDeg = 128
	check := func(u float64) {
		t.Helper()
		got, want := powNeg(1-u, 1/alpha), math.Pow(1-u, -1/alpha)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("u = %v: powNeg = %v, math.Pow = %v", u, got, want)
		}
		g, w := min(int(xm*got), maxDeg), min(int(xm*want), maxDeg)
		if g != w {
			t.Fatalf("u = %v: degree %d, want %d", u, g, w)
		}
	}
	check(0)
	check(1 - 0x1p-53) // the largest Float64 draw: 1-u = 2^-53
	for _, seed := range []int64{101, 7} {
		src := newSource(seed)
		for range 1_000_000 {
			check(src.Float64())
		}
	}
}

// TestUnitThresholds pins each integer threshold to its float test at
// the boundary itself: a random stream essentially never draws a value
// on a threshold, so the reference comparisons cannot catch an
// off-by-one here.
func TestUnitThresholds(t *testing.T) {
	unit := func(x int64) float64 { return float64(x) / (1 << 63) }
	for _, th := range []struct {
		name string
		x    int64
		t    float64
	}{
		{"xA", xA, rmatA},
		{"xAB", xAB, rmatA + rmatB},
		{"xABC", xABC, rmatA + rmatB + rmatC},
	} {
		if !(unit(th.x-1) < th.t && th.t <= unit(th.x)) {
			t.Errorf("%s = %d: want unit(x-1) = %v < %v <= unit(x) = %v",
				th.name, th.x, unit(th.x-1), th.t, unit(th.x))
		}
	}
	// rand.Float64 rejects exactly the draws that round to 1.
	if unit(xRedraw-1) == 1 || unit(xRedraw) != 1 {
		t.Errorf("xRedraw = %d: unit(x-1) = %v, unit(x) = %v; want the least x with unit(x) == 1",
			xRedraw, unit(xRedraw-1), unit(xRedraw))
	}
}

// Table I input sizes and seeds (internal/workloads/bench.go: seeds are
// benchSeed(slot) = 100 + slot).
const (
	tableISeedBase = 100
	citationN      = 65536
	citationDeg    = 8
	g500Scale      = 16
	g500Deg        = 10
	joinN          = 32768
	joinMatches    = 48
	mandelPix      = 131072
	mandelIter     = 256
	mmSmallN       = 2048
	mmSmallCols    = 64
	mmLargeN       = 4096
	mmLargeCols    = 128
	saReadsN       = 16384
	amrCells       = 16384
)

func benchSeed(slot int64) int64 { return tableISeedBase + slot }

// BenchmarkGenerators times each Table I input generator at the size
// and seed the benchmark registry builds it with: the input-generation
// layer of set-up. The seeded generators draw through source, a block
// of the stream at a time; Mandel iterates only the pixels outside the
// main cardioid and the period-2 bulb. Mandel's pixels, AMRMesh's cells
// and Citation's Pareto transform split across GOMAXPROCS workers, so
// compare -cpu 1 with -cpu 2 to separate that from the serial work.
func BenchmarkGenerators(b *testing.B) {
	for _, gen := range []struct {
		name string
		make func() any
	}{
		{"Graph500", func() any { return Graph500(g500Scale, g500Deg, benchSeed(2)) }},
		{"Citation", func() any { return Citation(citationN, citationDeg, benchSeed(1)) }},
		{"UniformRelation", func() any { return UniformRelation(joinN, joinMatches, benchSeed(3)) }},
		{"GaussianRelation", func() any { return GaussianRelation(joinN, joinMatches, 14, benchSeed(4)) }},
		{"SparseMatrix-small", func() any { return NewSparseMatrix(mmSmallN, mmSmallCols, 8, benchSeed(5)) }},
		{"SparseMatrix-large", func() any { return NewSparseMatrix(mmLargeN, mmLargeCols, 10, benchSeed(6)) }},
		{"ThalianaReads", func() any { return ThalianaReads(saReadsN, benchSeed(7)) }},
		{"AMRMesh", func() any { return NewAMRMesh(amrCells, benchSeed(9)) }},
		{"Mandel", func() any { return NewMandelGrid(mandelPix, mandelIter) }},
	} {
		b.Run(gen.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if gen.make() == nil {
					b.Fatal("nil input")
				}
			}
		})
	}
}
