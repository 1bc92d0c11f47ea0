package main

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"time"
)

// refCalibMs is the usual hostClock tick on the reference host (2-core
// Xeon VM): over the 80 runs of two 10-seed sets of the four workloads,
// the median of a run's mean tick.
const refCalibMs = 30.3

// hostClock measures how fast the host runs right now, with work no
// change to the simulator touches: a chain of dependent loads through
// 32 MiB, out of every cache. On a shared host, contention from other
// tenants slows it and the simulator alike for minutes at a time, so a
// run's mean tick against the reference tick is the run's host slowdown
// (see README.md, "Host clock").
type hostClock struct {
	next  []byte // 4-byte little-endian successors, off the Go heap
	at    uint32
	total time.Duration
	ticks int
}

func newHostClock() (*hostClock, error) {
	const n = 1 << 23
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host clock: %w", err)
	}
	// i -> (5i+1) mod 2^23 is a single cycle through every slot (a full-
	// period LCG), in an order no prefetcher follows.
	for i := uint32(0); i < n; i++ {
		binary.LittleEndian.PutUint32(mem[4*i:], (5*i+1)%n)
	}
	return &hostClock{next: mem}, nil
}

// tick walks 200,000 links (about 30 ms). A nil clock does nothing.
func (h *hostClock) tick() {
	if h == nil {
		return
	}
	start := time.Now()
	at := h.at
	for i := 0; i < 200_000; i++ {
		at = binary.LittleEndian.Uint32(h.next[4*at:])
	}
	h.at = at
	h.total += time.Since(start)
	h.ticks++
}

// slowdown is the mean tick time over the reference tick time: above 1
// when the host ran slower than the reference host usually does.
func (h *hostClock) slowdown() float64 {
	return float64(h.total) / float64(max(h.ticks, 1)) / 1e6 / refCalibMs
}
