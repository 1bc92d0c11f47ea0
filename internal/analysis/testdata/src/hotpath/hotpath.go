// Package hotpath is a spawnvet golden-test fixture: GPU.Run is the
// run root (it reaches Tick and Cycle), Step and Account are marked
// roots, and Cold stays outside the hot set.
package hotpath

import (
	"fmt"

	"spawnsim/internal/profile"
)

// Engine is a toy per-cycle engine with an optional observability hook.
type Engine struct {
	hook  func(int)
	count int
}

// Tick is hot because GPU.Run calls it. Its body and callees are
// checked.
func (e *Engine) Tick(now int) {
	s := fmt.Sprintf("cycle %d", now) // flagged: formatting per cycle
	_ = s
	e.hook(now) // flagged: unguarded hook call
	if e.hook != nil {
		e.hook(now) // guarded: not flagged
	}
	if e.hook != nil && now > 0 {
		e.hook(now) // guarded by the left conjunct: not flagged
	}
	e.helper(now)
}

// helper is hot because Tick calls it.
func (e *Engine) helper(now int) {
	m := make(map[int]int) // flagged: map allocation per cycle
	m[now] = now
	box(now) // argument flagged: int boxed into interface{}
}

func box(v interface{}) {}

//spawnvet:hotpath
func (e *Engine) Step(now int) {
	//spawnvet:allow hotpath fixture: amortized slow-path formatting
	_ = fmt.Sprint(now)
	e.count++
}

// Abort formats on the cold path (inside a return): not flagged.
func (e *Engine) Cycle(now int) string {
	if now < 0 {
		return fmt.Sprintf("bad cycle %d", now)
	}
	e.count++
	return ""
}

// Account exercises the profile-accounting rule: the nil-safe
// accumulators pass, report assembly inside the tick loop does not.
//
//spawnvet:hotpath
func (e *Engine) Account(p *profile.Profile, now uint64) {
	p.Note(profile.CompGMU, profile.StateBusy) // accumulator: not flagged
	if p.SampleDue(now) {                      // accumulator: not flagged
		e.count++
	}
	_ = p.Report() // flagged: finalization API per cycle
}

// Cold is never reached from a root: nothing inside is flagged.
func (e *Engine) Cold(now int) string {
	return fmt.Sprintf("cold %d", now)
}
