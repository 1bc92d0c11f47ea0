// Package skipsafe is a spawnvet golden-test fixture for the idle
// fast-forward contract: every effect class the analyzer reports,
// staged beside the sanctioned patterns and purity's classes.
package skipsafe

import (
	"errors"
	"time"
)

// Cycle mirrors kernel.Cycle.
type Cycle uint64

// launches is package-level state: skip-path writes to it are purity's.
var launches int

// table is package-level state reachable through aliases.
var table = map[int]int{}

// GPU mirrors the engine root; Run carries the canonical
// activity-branch shape the analyzer locates structurally.
type GPU struct {
	clock   Cycle
	pending int
	idle    uint64
	events  chan int
}

func (g *GPU) Run() error {
	for g.pending > 0 {
		if n := g.nextWork(); n <= 0 && g.active() {
			g.clock++
			continue
		}
		// The fast-forward region: everything below runs only when idle.
		g.pace(&g.idle)      // flagged inside: write through p before p is rebound
		span := g.estimate() // clean: pure computation
		_ = lookup(span)     // clean: checked, nothing to report
		g.recordStats()      // unflagged: package-level writes are purity's
		g.touch()            // flagged inside: receiver mutation
		g.logIdle()          // unflagged: ambient I/O is purity's
		g.fanout()           // flagged inside: goroutine spawn
		g.publish()          // flagged inside: channel send
		g.probe()            // flagged inside helper: multi-hop chain
		scribble()           // unflagged: aliased global writes are purity's
		g.skim()             // flagged inside: a leftover directive trusts nothing
		g.tally()            // suppressed inside: //spawnvet:allow
		g.profTick()         // flagged inside: accumulators get no trust
		if g.wedged() {
			return g.abort("wedged while idle") // cold return path: excluded
		}
	}
	return nil
}

// active reports whether any unit has work this cycle.
func (g *GPU) active() bool { return g.pending%2 == 1 }

// nextWork is the dueness probe in the activity branch's init: the
// stepped reference engine re-evaluates it every idle cycle, so its
// closure is walked from the condition roots.
func (g *GPU) nextWork() int {
	g.sniff()
	return g.pending - 1
}

// sniff mutates the receiver from the dueness probe: flagged via the
// chain nextWork → sniff even though the probe is outside the
// false-edge region.
func (g *GPU) sniff() {
	g.idle++ // flagged
}

// wedged is a clean predicate on the skip path.
func (g *GPU) wedged() bool { return g.pending < 0 }

// estimate is frame-local computation: no effects.
func (g *GPU) estimate() int {
	n := g.pending * 3
	return n + 1
}

// lookup is a pure table lookup: the walk checks it and finds nothing.
func lookup(x int) int { return x * 2 }

// recordStats writes package-level state: purity's finding.
func (g *GPU) recordStats() {
	launches++ // unflagged
}

// touch mutates the receiver: even the GPU's own fields must stay
// frozen while the engine fast-forwards.
func (g *GPU) touch() {
	g.idle++ // flagged
}

// logIdle reads the wall clock: purity's finding.
func (g *GPU) logIdle() {
	_ = time.Now() // unflagged
}

// fanout schedules observable work.
func (g *GPU) fanout() {
	go func() {}() // flagged
}

// publish sends an observable event.
func (g *GPU) publish() {
	g.events <- 1 // flagged
}

// probe looks harmless, but its callee is not: the diagnostic carries
// the discovery chain probe → helper.
func (g *GPU) probe() {
	helper()
}

func helper() {
	go lookup(0) // flagged via the chain from probe
}

// scribble writes package-level state through a local alias: purity's.
func scribble() {
	t := table
	t[1] = 2 // unflagged
}

// skim carries a leftover trust directive: it is an unknown directive
// now (a directive diagnostic), and the effect is still reported.
//
//spawnvet:skipsafe
func (g *GPU) skim() {
	g.idle++ // flagged: no directive confers trust
}

// tally stages site-level suppression.
func (g *GPU) tally() {
	//spawnvet:allow skipsafe fixture: diagnostic counter is invisible to simulated state
	g.idle++
}

// pace writes through its pointer parameter, then rebinds it: the
// incoming value is one more definition of p, so the write counts.
func (g *GPU) pace(p *uint64) {
	*p = 0 // flagged: p still points at the caller's memory
	local := uint64(1)
	p = &local
}

// abort sits on a cold return path (deadlock surfacing), so the
// skip-path walk excludes it.
func (g *GPU) abort(msg string) error {
	g.idle++ // unflagged: cold path
	return errors.New(msg)
}

// profTick is a profiling accumulator called from the skip region: it
// gets no trust, so its mutation is flagged.
func (g *GPU) profTick() {
	g.idle++ // flagged
}

// dispatch has every effect in the book but is never on the skip path:
// unflagged (the contract gates on reachability from the idle region).
func (g *GPU) dispatch() {
	launches++
	g.idle++
	_ = time.Now()
}
