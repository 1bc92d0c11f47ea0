package hotpath

import "spawnsim/internal/analysis/testdata/src/hotpath/hotlib"

// GPU is the run root's receiver.
type GPU struct {
	e *Engine
}

// Run is the run root: everything it calls statically is hot, in this
// package or another one.
func (g *GPU) Run(now int) {
	g.e.Tick(now)
	_ = g.e.Cycle(now)
	g.alloc(now)
	_ = hotlib.Label(now) // hot callee in another package
}

// alloc stages the remaining allocation classes on a per-cycle path.
func (g *GPU) alloc(now int) {
	f := func() int { return now } // flagged: closure per cycle
	m := map[int]int{now: f()}     // flagged: map literal per cycle
	p := new(int)                  // flagged: new(...) per cycle
	*p = m[now]
}
