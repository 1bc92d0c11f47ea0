// Package purity stages run-reachable impurities for the purity
// analyzer: every effect class, the one escape hatch, and the
// suppression grammar. The golden file pins the exact diagnostics.
package purity

import (
	"os"
	"time"
)

// GPU mirrors the simulator core's receiver shape; its Run method is a
// purity root no matter which package it lives in.
type GPU struct {
	cycles uint64
}

// launchCount is the package-level state the staged helpers mutate.
var launchCount int

// lastInput retains caller memory handed to Run: a package write.
var lastInput []byte

// table is package-level state aliased through a local below.
var table = make([]int, 4)

// Run reaches every staged impurity.
func (g *GPU) Run(input []byte) uint64 {
	g.cycles++ // receiver state stays in-frame: pure
	g.page()
	bump()
	stamp()
	retain(input)
	poke()
	sneaky()
	rebind(input)
	g.cycles += heartbeat()
	return g.cycles
}

func (g *GPU) page() {
	//spawnvet:allow purity os.Getpagesize is a process constant, not ambient state
	g.cycles += uint64(os.Getpagesize())
}

func bump() {
	launchCount++ // want: package-level write, chain Run → bump
}

func stamp() { tick() }

func tick() {
	_ = time.Now() // want: ambient I/O, chain Run → stamp → tick
}

func retain(in []byte) {
	lastInput = in // want: package-level write of a pointer input
}

func poke() {
	t := table
	t[0] = 1 // want: write through an alias of package-level state
}

//spawnvet:pure
func sneaky() {
	launchCount = 0 // still flagged: the leftover directive above is unknown
}

// rebind retains its pointer input, then rebinds the parameter: the
// package write counts whatever in holds afterwards.
func rebind(in []byte) {
	lastInput = in // want: package-level write despite the rebinding
	var local [4]byte
	in = local[:]
}

func heartbeat() uint64 {
	//spawnvet:allow purity presentation-only rate estimate for the fixture
	return uint64(time.Now().Unix())
}

// coldReset is impure but unreachable from any run root: not flagged.
func coldReset() { launchCount = 0 }
