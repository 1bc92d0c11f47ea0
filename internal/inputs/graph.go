package inputs

import (
	"math"
	"math/rand"
)

// Graph is a directed graph in CSR form with a virtual-memory layout for
// its arrays (4 bytes per element).
type Graph struct {
	N      int
	RowPtr []int32 // length N+1
	Adj    []int32 // length RowPtr[N]

	// Virtual base addresses.
	RowPtrBase uint64
	AdjBase    uint64
	// PropBase/Prop2Base address per-vertex property arrays (visited
	// flags, distances, colors, ...); EdgeWBase addresses per-edge
	// weights (SSSP).
	PropBase  uint64
	Prop2Base uint64
	EdgeWBase uint64
}

// Edges returns the edge count.
func (g *Graph) Edges() int { return len(g.Adj) }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

// MaxDegree returns the largest out-degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// layoutGraph assigns virtual addresses to the CSR arrays.
func layoutGraph(g *Graph) {
	l := NewLayout()
	g.RowPtrBase = l.Alloc(4 * (g.N + 1))
	g.AdjBase = l.Alloc(4 * len(g.Adj))
	g.PropBase = l.Alloc(4 * g.N)
	g.Prop2Base = l.Alloc(4 * g.N)
	g.EdgeWBase = l.Alloc(4 * len(g.Adj))
}

// fromDegrees builds a CSR graph with the given out-degrees and
// uniformly random edge targets.
func fromDegrees(deg []int, rng *rand.Rand) *Graph {
	n := len(deg)
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

// Citation generates a power-law out-degree graph resembling a citation
// network: most papers cite few, a few survey papers cite very many.
// The degree of vertex v is drawn from a discrete Pareto distribution
// with the given exponent (~2.1 for real citation graphs), scaled so the
// mean is close to avgDeg.
func Citation(n, avgDeg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	alpha := 2.1
	// Pareto sample: floor(xm * u^(-1/alpha)); xm chosen so mean ~= avgDeg.
	// Mean of Pareto = xm*alpha/(alpha-1) => xm = avgDeg*(alpha-1)/alpha.
	xm := float64(avgDeg) * (alpha - 1) / alpha
	if xm < 1 {
		xm = 1
	}
	// Cap hub degrees: real citation networks top out around a few
	// hundred references, and the cap keeps flat-mode serial tails in
	// the regime the paper's Figure 5 spans.
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
	return fromDegrees(deg, rng)
}

// Graph500 generates an R-MAT (Kronecker) graph per the Graph500
// specification: scale gives 2^scale vertices, edgeFactor edges per
// vertex, with the canonical (A,B,C,D) = (0.57, 0.19, 0.19, 0.05)
// partition probabilities. The resulting out-degree distribution is
// highly skewed, with hub vertices of very large degree.
func Graph500(scale, edgeFactor int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := n * edgeFactor
	const a, b, c = 0.57, 0.19, 0.19
	// Hub degrees are capped at 1024: excess edges of a saturated hub
	// are redirected to a uniformly random source, trimming the extreme
	// tail while keeping the R-MAT skew.
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
