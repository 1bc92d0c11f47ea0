package main

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"

	"spawnsim/internal/sim"
	"spawnsim/internal/sim/kernel"
)

// The runs of a parallel offline sweep share one heartbeat printer, so
// it must take concurrent callbacks (run under -race) and print every
// one of them whole.
func TestHeartbeatPrinterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	hb := heartbeatPrinter(&buf)
	const runs, beats = 4, 50
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 1; c <= beats; c++ {
				hb(sim.Progress{Cycle: kernel.Cycle(c * 1000), LiveKernels: 2, QueuedKernels: 1})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != runs*beats {
		t.Fatalf("%d heartbeat lines, want %d", len(lines), runs*beats)
	}
	line := regexp.MustCompile(`^heartbeat: cycle \d+, 2 live kernels \(1 queued\), \d+\.\d\dM sim-cycles/s$`)
	for _, l := range lines {
		if !line.MatchString(l) {
			t.Fatalf("malformed heartbeat line %q", l)
		}
	}
}
