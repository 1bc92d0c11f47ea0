package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"spawnsim/internal/harness"
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

// TestPrintSeriesPrintsAllThree: -series prints the concurrency series
// and the utilization series its help text promises, each compacted to
// at most 64 samples.
func TestPrintSeriesPrintsAllThree(t *testing.T) {
	out, err := harness.Run(harness.Spec{Benchmark: "MM-small", Scheme: harness.SchemeSpawn, SampleInterval: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printSeries(&buf, out.Result)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	prefixes := []string{"parent CTAs: [", "child CTAs : [", "utilization: ["}
	if len(lines) != len(prefixes) {
		t.Fatalf("-series printed %d lines, want %d:\n%s", len(lines), len(prefixes), buf.String())
	}
	for i, p := range prefixes {
		l := lines[i]
		if !strings.HasPrefix(l, p) || !strings.HasSuffix(l, "]") {
			t.Errorf("line %d = %q, want %q...]", i, l, p)
			continue
		}
		if n := len(strings.Fields(l[len(p) : len(l)-1])); n == 0 || n > 64 {
			t.Errorf("line %d carries %d samples, want 1 to 64", i, n)
		}
	}
}

// TestFailedRunWritesCPUProfile runs the command in a child process: a
// run the one-tick stall window aborts exits 124, and the -cpuprofile
// it asked for is still written out.
func TestFailedRunWritesCPUProfile(t *testing.T) {
	if args := os.Getenv("SPAWNSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"spawnsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	profile := filepath.Join(t.TempDir(), "cpu.out")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedRunWritesCPUProfile$")
	cmd.Env = append(os.Environ(),
		"SPAWNSIM_TEST_ARGS=-bench MM-small -scheme flat -stall-window 1 -cpuprofile "+profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 124 {
		t.Fatalf("stalled run: %v, want exit status 124; stderr %q", err, stderr.String())
	}
	fi, err := os.Stat(profile)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("the failed run left an empty cpu profile")
	}
}
