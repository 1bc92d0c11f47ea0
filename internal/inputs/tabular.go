package inputs

import (
	"math"
	"math/rand"
)

// Relation models the probe side of a hash join: tuple i of the outer
// relation R matches Matches[i] tuples of the inner relation S.
type Relation struct {
	N       int
	Matches []int

	RBase   uint64 // outer tuples
	SBase   uint64 // inner tuples (match targets)
	OutBase uint64 // join output
	SSize   int    // inner-relation cardinality (address range of SBase)
}

func layoutRelation(r *Relation, sSize int) {
	l := NewLayout()
	r.RBase = l.Alloc(8 * r.N)
	r.SSize = sSize
	r.SBase = l.Alloc(8 * sSize)
	total := 0
	for _, m := range r.Matches {
		total += m
	}
	r.OutBase = l.Alloc(8 * (total + 1))
}

// UniformRelation generates a join input with near-constant matches per
// tuple (JOIN-uniform): the workload is balanced across parent threads,
// which is why the paper finds this benchmark prefers not launching
// children at all.
func UniformRelation(n, matches int, seed int64) *Relation {
	rng := newSource(seed)
	r := &Relation{N: n, Matches: make([]int, n)}
	for i := range r.Matches {
		// +/-1 jitter keeps it realistic without creating imbalance.
		r.Matches[i] = matches + rng.Intn(3) - 1
		if r.Matches[i] < 0 {
			r.Matches[i] = 0
		}
	}
	layoutRelation(r, n*matches/4+16)
	return r
}

// GaussianRelation generates a join input whose per-tuple match counts
// follow a (clamped) normal distribution (JOIN-gaussian): moderate
// imbalance with a long-ish right tail.
func GaussianRelation(n int, mean, sd float64, seed int64) *Relation {
	rng := rand.New(newSource(seed))
	r := &Relation{N: n, Matches: make([]int, n)}
	for i := range r.Matches {
		m := int(math.Round(rng.NormFloat64()*sd + mean))
		if m < 0 {
			m = 0
		}
		r.Matches[i] = m
	}
	layoutRelation(r, int(float64(n)*mean/4)+16)
	return r
}

// SparseMatrix is a CSR sparse matrix times a dense multiplier: parent
// thread i owns row i (NNZ[i] non-zeros); the DP child kernel spawns one
// thread per multiplier column, each computing one dot product of
// NNZ[i] multiply-adds (the paper's MM structure).
type SparseMatrix struct {
	Rows int
	Cols int // multiplier columns (child kernel width)
	NNZ  []int

	RowPtrBase uint64
	ColIdxBase uint64
	ValBase    uint64
	DenseBase  uint64
	OutBase    uint64
	ColIdx     []int32 // column index of each stored element
	rowPtr     []int32
}

// RowStart returns the CSR offset of row r's first element.
func (m *SparseMatrix) RowStart(r int) int32 { return m.rowPtr[r] }

// NewSparseMatrix generates a matrix whose per-row non-zero counts are
// Pareto-distributed (exponent ~1.6: a few very dense rows), matching
// the "severe workload imbalance" the paper attributes to its sparse
// inputs. cols is the dense multiplier width.
func NewSparseMatrix(rows, cols, avgNNZ int, seed int64) *SparseMatrix {
	rng := newSource(seed)
	alpha := 2.0
	xm := float64(avgNNZ) * (alpha - 1) / alpha
	if xm < 1 {
		xm = 1
	}
	m := &SparseMatrix{Rows: rows, Cols: cols, NNZ: make([]int, rows)}
	total := 0
	maxNNZ := 12 * avgNNZ
	for i := range m.NNZ {
		u := rng.Float64()
		v := int(xm * math.Pow(1-u, -1/alpha))
		if v > maxNNZ {
			v = maxNNZ
		}
		m.NNZ[i] = v
		total += v
	}
	m.rowPtr = make([]int32, rows+1)
	acc := int32(0)
	for i, v := range m.NNZ {
		m.rowPtr[i] = acc
		acc += int32(v)
	}
	m.rowPtr[rows] = acc
	m.ColIdx = make([]int32, total)
	for i := range m.ColIdx {
		m.ColIdx[i] = int32(rng.Intn(rows))
	}
	l := NewLayout()
	m.RowPtrBase = l.Alloc(4 * (rows + 1))
	m.ColIdxBase = l.Alloc(4 * total)
	m.ValBase = l.Alloc(4 * total)
	m.DenseBase = l.Alloc(4 * rows * cols)
	m.OutBase = l.Alloc(4 * rows * cols)
	return m
}

// Reads models a set of sequencing reads for the SA (sequence
// alignment) application: read i has Candidates[i] candidate locations
// in the reference index; each candidate costs MatchIters inner
// comparison iterations.
type Reads struct {
	N          int
	Candidates []int
	MatchIters int // per-candidate verification iterations (read length / word)

	ReadBase  uint64
	IndexBase uint64
	RefBase   uint64
	OutBase   uint64
	RefSize   int
}

// readsProfile generates heavy-tailed candidate counts via a lognormal
// distribution, the empirical shape of seed-and-extend mappers: most
// reads have a handful of candidates, repeats have thousands.
func readsProfile(n int, mu, sigma float64, matchIters int, seed int64) *Reads {
	rng := rand.New(newSource(seed))
	r := &Reads{N: n, Candidates: make([]int, n), MatchIters: matchIters}
	maxC := 1 << 14
	for i := range r.Candidates {
		c := int(math.Exp(rng.NormFloat64()*sigma + mu))
		if c < 1 {
			c = 1
		}
		if c > maxC {
			c = maxC
		}
		r.Candidates[i] = c
	}
	l := NewLayout()
	r.ReadBase = l.Alloc(64 * n)
	r.IndexBase = l.Alloc(8 * n)
	r.RefSize = 1 << 22
	r.RefBase = l.Alloc(r.RefSize)
	r.OutBase = l.Alloc(16 * n)
	return r
}

// ThalianaReads mimics the Arabidopsis thaliana dataset of the paper:
// a compact genome with strong repeat families — long candidate tail.
func ThalianaReads(n int, seed int64) *Reads { return readsProfile(n, 2.4, 1.4, 8, seed) }

// ElegansReads mimics the C. elegans dataset used in the DTBL
// comparison (Figure 21): similar shape, shorter tail.
func ElegansReads(n int, seed int64) *Reads { return readsProfile(n, 2.2, 1.1, 8, seed) }

// AMRMesh models one refinement step of a combustion adaptive-mesh
// simulation: cell i needs Refine[i] sub-cells; sub-cell (i,j) may need
// SubRefine more levels of nested refinement when the local "flame
// front" intensity is high (driving the paper's nested child launches).
type AMRMesh struct {
	N      int
	Refine []int
	// SubFrac is the fraction of sub-cells that refine one level deeper;
	// SubWork is the work items of such a nested refinement.
	SubFrac float64
	SubWork int

	CellBase uint64
	SubBase  uint64
	OutBase  uint64
}

// NewAMRMesh generates a mesh whose refinement demand follows a smooth
// intensity field with sharp fronts: a minority of cells refine heavily.
func NewAMRMesh(n int, seed int64) *AMRMesh { return newAMRMesh(n, seed, workers(n)) }

// newAMRMesh is NewAMRMesh with the field's cells split across the
// given number of workers, each summing the same bumps for its cells.
func newAMRMesh(n int, seed int64, workers int) *AMRMesh {
	rng := newSource(seed)
	m := &AMRMesh{N: n, Refine: make([]int, n), SubFrac: 0.125, SubWork: 16}
	// Intensity field: sum of a few random Gaussian bumps over [0,1).
	bumps := make([]bump, 6)
	for i := range bumps {
		bumps[i] = bump{c: rng.Float64(), w: 0.01 + rng.Float64()*0.05, h: 20 + rng.Float64()*120}
	}
	parallelFor(n, workers, func(lo, hi int) { intensity(m.Refine, bumps, lo, hi) })
	l := NewLayout()
	m.CellBase = l.Alloc(32 * n)
	m.SubBase = l.Alloc(32 * n * 8)
	m.OutBase = l.Alloc(32 * n)
	return m
}

// bump is one Gaussian bump of an AMR mesh's intensity field: centre
// c, width w and height h over [0, 1).
type bump struct{ c, w, h float64 }

// intensity sets refine[i] to the whole part of the bumps' sum at cell
// i's position i/len(refine), for lo <= i < hi.
func intensity(refine []int, bumps []bump, lo, hi int) {
	n := len(refine)
	for i := lo; i < hi; i++ {
		x := float64(i) / float64(n)
		v := 0.0
		for _, b := range bumps {
			d := (x - b.c) / b.w
			v += b.h * math.Exp(-d*d)
		}
		refine[i] = int(v)
	}
}

// MandelGrid models the Mandelbrot benchmark: pixel block i needs
// Iters[i] escape-time iterations, computed from the actual Mandelbrot
// recurrence over a region crossing the set boundary (the classic
// source of extreme workload imbalance).
type MandelGrid struct {
	N       int
	Iters   []int
	MaxIter int

	OutBase uint64
}

// NewMandelGrid samples an n-block strip across the seahorse valley.
func NewMandelGrid(n, maxIter int) *MandelGrid { return newMandelGrid(n, maxIter, workers(n)) }

// newMandelGrid is NewMandelGrid with the pixels split across the given
// number of workers.
func newMandelGrid(n, maxIter, workers int) *MandelGrid {
	g := &MandelGrid{N: n, Iters: make([]int, n), MaxIter: maxIter}
	side := int(math.Sqrt(float64(n)))
	if side < 1 {
		side = 1
	}
	parallelFor(n, workers, func(lo, hi int) { mandelRange(g.Iters, lo, hi, side, maxIter) })
	l := NewLayout()
	g.OutBase = l.Alloc(4 * n)
	return g
}

// mandelRange sets iters[i] for the pixels lo <= i < hi of a grid side
// pixels wide.
func mandelRange(iters []int, lo, hi, side, maxIter int) {
	c := func(i int) (cr, ci float64) {
		px, py := i%side, i/side
		return -0.78 + 0.06*float64(px)/float64(side), 0.10 + 0.06*float64(py)/float64(side)
	}
	// A c in the main cardioid or the period-2 bulb never escapes, so it
	// gets maxIter without running the recurrence (see interior). The
	// other pixels go in threes whose recurrences advance in lockstep,
	// so their dependent multiply chains overlap, until any of them
	// exits; escape then finishes each from where it stopped. Every
	// pixel does the same float operations in the same order as alone,
	// so where a range starts does not change any pixel's count.
	// Three lanes ran as fast as four and faster than two.
	var lane [3]int
	lanes := 0
	for i := lo; i < hi; i++ {
		if cr, ci := c(i); interior(cr, ci) {
			iters[i] = maxIter
			continue
		}
		lane[lanes] = i
		if lanes++; lanes < len(lane) {
			continue
		}
		lanes = 0
		cr0, ci0 := c(lane[0])
		cr1, ci1 := c(lane[1])
		cr2, ci2 := c(lane[2])
		zr0, zi0, zr1, zi1, zr2, zi2 := 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
		it := 0
		for ; it < maxIter && zr0*zr0+zi0*zi0 < 4 && zr1*zr1+zi1*zi1 < 4 && zr2*zr2+zi2*zi2 < 4; it++ {
			zr0, zi0 = zr0*zr0-zi0*zi0+cr0, 2*zr0*zi0+ci0
			zr1, zi1 = zr1*zr1-zi1*zi1+cr1, 2*zr1*zi1+ci1
			zr2, zi2 = zr2*zr2-zi2*zi2+cr2, 2*zr2*zi2+ci2
		}
		iters[lane[0]] = escape(zr0, zi0, cr0, ci0, it, maxIter)
		iters[lane[1]] = escape(zr1, zi1, cr1, ci1, it, maxIter)
		iters[lane[2]] = escape(zr2, zi2, cr2, ci2, it, maxIter)
	}
	for _, i := range lane[:lanes] {
		cr, ci := c(i)
		iters[i] = escape(0, 0, cr, ci, 0, maxIter)
	}
}

// escape runs the Mandelbrot recurrence for c = (cr, ci) from z = (zr,
// zi) after it iterations and returns the iteration count at which z
// leaves the radius-2 disc, or maxIter.
func escape(zr, zi, cr, ci float64, it, maxIter int) int {
	for ; it < maxIter && zr*zr+zi*zi < 4; it++ {
		zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
	}
	return it
}

// interior reports whether c = (cr, ci) lies in the main cardioid or
// the period-2 bulb of the Mandelbrot set. The orbit of an interior c
// stays bounded, so the recurrence never escapes and returns maxIter. A
// c that these float tests misplace lies within rounding distance of
// the boundary, and escape time grows without bound as c nears the
// boundary from outside (like π/sqrt(distance) at the cusp c = 1/4,
// some 10^8 iterations at rounding distance): orders of magnitude
// beyond the 256 iterations Table I uses.
func interior(cr, ci float64) bool {
	xq, y2 := cr-0.25, ci*ci
	q := xq*xq + y2
	if q*(q+xq) <= 0.25*y2 {
		return true
	}
	xb := cr + 1
	return xb*xb+y2 <= 1.0/16
}
