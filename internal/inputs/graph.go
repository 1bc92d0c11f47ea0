package inputs

import "math"

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
func fromDegrees(deg []int32, rng *source) *Graph {
	n := len(deg)
	g := &Graph{N: n, RowPtr: make([]int32, n+1)}
	total := 0
	for v, d := range deg {
		g.RowPtr[v] = int32(total)
		total += int(d)
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
func Citation(n, avgDeg int, seed int64) *Graph { return citation(n, avgDeg, seed, workers(n)) }

// citation is Citation with the Pareto transform of the degree draws
// split across the given number of workers. The draws themselves are
// taken first, in order, and the edge targets after them.
func citation(n, avgDeg int, seed int64, workers int) *Graph {
	rng := newSource(seed)
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
	draws := make([]float64, n)
	for v := range draws {
		draws[v] = rng.Float64()
	}
	deg := make([]int32, n)
	yf := 1 / alpha
	parallelFor(n, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			d := int(xm * powNeg(1-draws[v], yf))
			if d > maxDeg {
				d = maxDeg
			}
			deg[v] = int32(d)
		}
	})
	return fromDegrees(deg, rng)
}

// powNeg returns math.Pow(x, -yf) for 0 < x <= 1 and 0 < yf < 0.5,
// bit for bit, by the path math.Pow's pure-Go body takes there: the
// exponent's integer part is 0 and its fraction yf, so Pow computes
// Exp(yf*Log(x)), skips its squaring loop, inverts for the negative
// exponent and scales by 2^0. Only s390x replaces that body (archPow).
func powNeg(x, yf float64) float64 { return 1 / math.Exp(yf*math.Log(x)) }

// Graph500 generates an R-MAT (Kronecker) graph per the Graph500
// specification: scale gives 2^scale vertices, edgeFactor edges per
// vertex, with the canonical (A,B,C,D) = (0.57, 0.19, 0.19, 0.05)
// partition probabilities. The resulting out-degree distribution is
// highly skewed, with hub vertices of very large degree.
func Graph500(scale, edgeFactor int, seed int64) *Graph {
	rng := newSource(seed)
	n := 1 << scale
	m := n * edgeFactor
	// Hub degrees are capped near 1024: an edge whose R-MAT source is
	// already saturated is redirected to a uniformly random source,
	// trimming the extreme tail while keeping the R-MAT skew. The
	// redirected source is not checked again, so a few hubs end a
	// little above the cap.
	const maxDeg = 1024
	deg := make([]int32, n)
	src := make([]int32, m)
	dst := make([]int32, m)
	// Each pick consumes the stream exactly as rng.Float64 would (see
	// xA). The sign bit of t-1-x is [x >= t]; each pick shifts its
	// quadrant's bits in at the top, so after scale picks bit i of u and
	// v holds pick i.
	const top = 1 << 63
	ltA, ltAB, ltABC := xA-1, xAB-1, xABC-1
	for e := 0; e < m; e++ {
		var uu, vv uint64
		for bit := 0; bit < scale; bit++ {
			x := rng.Int63()
			for x >= xRedraw {
				x = rng.Int63()
			}
			ab := uint64(ltAB - x)
			uu = uu>>1 | ab&top
			vv = vv>>1 | (uint64(ltA-x)^ab^uint64(ltABC-x))&top
		}
		u, v := int(uu>>(64-scale)), int(vv>>(64-scale))
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
		total += int(deg[v])
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

// The R-MAT partition probabilities: a [0,1) draw below rmatA picks
// quadrant A, below rmatA+rmatB quadrant B, below rmatA+rmatB+rmatC
// quadrant C, and D otherwise.
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// Thresholds on the Int63 behind rand.Float64: x >= xA exactly when
// float64(x)/(1<<63) >= rmatA, and so on, and Float64 redraws exactly
// when x >= xRedraw.
var (
	xA      = unitThreshold(rmatA)
	xAB     = unitThreshold(rmatA + rmatB)
	xABC    = unitThreshold(rmatA + rmatB + rmatC)
	xRedraw = unitThreshold(1)
)

// unitThreshold returns the least non-negative int64 x with
// float64(x)/(1<<63) >= t, the float rand.Float64 makes of x.
func unitThreshold(t float64) int64 {
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
