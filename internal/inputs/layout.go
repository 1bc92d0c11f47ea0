// Package inputs generates the synthetic datasets that stand in for the
// paper's inputs (Table I): power-law "citation" graphs, Graph500 R-MAT
// graphs, uniform and Gaussian join relations, sparse matrices, sequence
// reads with heavy-tailed candidate counts, and AMR meshes. Every
// generator is seeded and deterministic.
//
// The random generators draw from source, which yields exactly the
// stream of math/rand's rand.NewSource(seed): its first 607 values are
// math/rand's own, and every later block of 607 follows by the source's
// own recurrence o[k] = o[k-607] + o[k-273], computed a block at a time
// rather than one value per call. The hot loops call its Int63 and its
// copies of rand.Rand's Float64 and Intn directly; rand.New(src) serves
// the rest. NewMandelGrid gives a c in the main cardioid or the period-2
// bulb maxIter without running the recurrence, which is what the
// recurrence returns there. Citation computes each Pareto degree's
// (1-u)^(-1/alpha) as 1/Exp(yf*Log(1-u)) with yf = 1/alpha, the very
// operations math.Pow performs for that exponent (see powNeg).
//
// The element loops whose elements do not depend on one another run on
// every core: NewMandelGrid's pixels, NewAMRMesh's intensity field and
// Citation's Pareto transform, which starts once all its draws are
// taken in order. parallelFor gives each of runtime.GOMAXPROCS(0)
// workers one contiguous range of at least minChunk elements, and runs
// inline when that leaves one worker. Each element does the same float
// operations as it does alone, so no input depends on the worker count.
// Loops that consume the stream draw by draw (Graph500's edges, the
// edge targets, the relations, reads and sparse matrices) stay serial.
// All of this keeps every input bit-identical to the one-value-at-a-
// time, one-element-at-a-time originals, which the reference tests pin
// at 1, 2, 3 and 7 workers.
//
// Each dataset also carries a virtual-memory layout: its arrays are
// assigned base addresses in the simulated address space so workloads
// can emit realistic, locality-bearing memory accesses.
package inputs

// Layout hands out non-overlapping virtual address regions.
type Layout struct{ next uint64 }

// regionAlign keeps regions line- and row-disjoint.
const regionAlign = 4096

// NewLayout starts allocating at a non-zero base.
func NewLayout() *Layout { return &Layout{next: 1 << 20} }

// Alloc reserves `bytes` and returns the region base.
func (l *Layout) Alloc(bytes int) uint64 {
	base := l.next
	n := (uint64(bytes) + regionAlign - 1) &^ uint64(regionAlign-1)
	l.next += n
	return base
}
