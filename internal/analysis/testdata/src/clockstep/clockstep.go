// Package clockstep is a spawnvet golden-test fixture for the
// clock-monotonicity contract: every violation class staged beside the
// sanctioned pattern it must not be confused with.
package clockstep

import "time"

// Cycle mirrors kernel.Cycle.
type Cycle uint64

// epoch is a named constant: a declared, reviewable timestamp source.
const epoch Cycle = 1

// GPU mirrors the engine root; the clock field is the single source of
// simulated time.
type GPU struct {
	clock    Cycle
	deadline Cycle
	busy     int
}

// Run is the run root: rules 1, 3 and 4 gate on reachability from here.
func (g *GPU) Run() {
	g.tick(g.clock)
	g.advance()
	g.skipTo()
	g.rollback()
	g.stampState(g.clock)
	g.launder()
	g.drain()
	g.drainFresh()
	g.report(g.clock)
}

// tick stages the sanctioned clock stores (rule 2).
func (g *GPU) tick(now Cycle) {
	g.clock = now         // threaded now: clock-derived
	g.clock = g.clock + 1 // clock plus non-negative constant
	g.clock += 2
	g.clock++
}

// advance stages the fast-forward skip: the early return on
// `next <= g.clock` proves the store below moves time forward.
func (g *GPU) advance() {
	next := g.deadline
	if next <= g.clock {
		return
	}
	g.clock = next // guarded: monotone
}

// skipTo stages the then-arm shape of the same proof.
func (g *GPU) skipTo() {
	next := g.deadline + 1
	if next > g.clock {
		g.clock = next // guarded: monotone
	}
}

// rollback stages the rule-2 violations: stores that could move time
// backwards. Rule 2 holds everywhere, reachable or not.
func (g *GPU) rollback() {
	restore := g.deadline
	g.clock = restore // flagged: raw store, no guard proof
	if restore < g.clock {
		g.clock = restore // flagged: the guard proves the wrong direction
	}
	g.clock-- // flagged: decrement
	g.clock -= 1
}

// stampState stages rule 1: stores to Cycle-typed state that is not the
// clock itself.
func (g *GPU) stampState(now Cycle) {
	g.deadline = now + 8 // now parameter: clean
	g.deadline = g.clock // clock read: clean
	g.deadline = epoch   // named constant: clean
	g.deadline = 0       // zero reset: exempt
	var zero Cycle
	g.deadline = zero     // declared zero value: exempt
	g.deadline = Cycle(7) // flagged: bare literal stamp
	//spawnvet:allow clockstep fixture: checkpoint restore re-stamps from a serialized epoch
	g.deadline = Cycle(13)
}

// launder stages wall-clock entropy flowing into simulated time.
func (g *GPU) launder() {
	g.deadline = Cycle(time.Now().UnixNano()) // flagged: host clock
}

// drain stages the stale-snapshot comparison (rule 4): limit is
// captured before the loop, but the loop advances the clock.
func (g *GPU) drain() {
	limit := g.clock + 100
	for g.busy > 0 {
		if g.clock >= limit { // flagged: stale snapshot
			g.busy = 0
		}
		g.clock++
	}
}

// drainFresh re-reads the clock each iteration: clean.
func (g *GPU) drainFresh() {
	for g.busy > 0 {
		limit := g.clock + 100
		if g.clock >= limit { // clean: snapshot refreshed in the loop
			g.busy = 0
		}
		g.clock++
	}
}

// checkpoint declares the audited now-named Cycle parameter (rule 3).
func (g *GPU) checkpoint(now Cycle, tag string) {
	if now > g.deadline {
		g.deadline = now
	}
	_ = tag
}

// report stages the fabricated-timestamp rule at checkpoint call sites.
func (g *GPU) report(now Cycle) {
	g.checkpoint(now, "flush")  // threaded clock: clean
	g.checkpoint(epoch, "boot") // named constant: clean
	g.checkpoint(0, "reset")    // flagged: fabricated literal timestamp
}

// coldInit is not reachable from Run: its literal stamps stay quiet
// (rules 1 and 3 gate on the run path), but the raw clock store is
// still flagged — rule 2 is unconditional.
func (g *GPU) coldInit() {
	g.deadline = Cycle(99)  // unflagged: off the run path
	g.checkpoint(5, "cold") // unflagged: off the run path
	g.clock = g.deadline    // flagged: a backwards clock is never right
}

// setClock stores a Cycle parameter that is not the threaded clock:
// only parameters named now or cycle count as clock-derived.
func (g *GPU) setClock(c Cycle) {
	g.clock = c // flagged: c is not the clock
}

// skipGoto leaves the guard by goto, which gives no guard fact: a
// forward goto can land later in the same block.
func (g *GPU) skipGoto(next Cycle) {
	if next <= g.clock {
		goto done
	}
	g.clock = next // flagged: goto is not an exit
done:
}

// skipLabel guards the store with an early return, but a goto lands
// on the label between guard and store, bypassing the guard.
func (g *GPU) skipLabel(next Cycle) {
	if g.busy > 0 {
		goto store
	}
	if next <= g.clock {
		return
	}
store:
	g.clock = next // flagged: the label voids the guard
}

// drainTo advances past an early continue: the store runs only when
// the guard failed, so next > g.clock.
func (g *GPU) drainTo(deadlines []Cycle) {
	for _, next := range deadlines {
		if next <= g.clock {
			continue
		}
		g.clock = next // guarded: monotone
	}
}
