package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// host describes the machine a baseline was measured on.
type host struct {
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPU          string `json:"cpu_model"`
	LoadAvgStart string `json:"loadavg_start"`
	LoadAvgEnd   string `json:"loadavg_end"`
}

// writeBaseline runs every workload once untraced and once traced, each in
// its own process as the benchmark is run, and writes their result lines
// with the host to path.
func writeBaseline(path string, seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	h := host{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPU:          cpuModel(),
		LoadAvgStart: loadAvg(),
	}
	runs := map[string]map[string]result{}
	for _, w := range suite {
		runs[w.name] = map[string]result{}
		for _, mode := range []string{"end_to_end", "per_layer"} {
			trace := "0"
			if mode == "per_layer" {
				trace = "1"
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, mode, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return fmt.Errorf("%s %s: %w", w.name, mode, err)
			}
			runs[w.name][mode] = r
		}
	}
	h.LoadAvgEnd = loadAvg()
	b, err := json.MarshalIndent(struct {
		Host    host                         `json:"host"`
		Seed    int64                        `json:"seed"`
		Seconds int                          `json:"seconds"`
		Runs    map[string]map[string]result `json:"runs"`
	}{h, seed, seconds, runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo") // best effort: empty off Linux
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func loadAvg() string {
	b, _ := os.ReadFile("/proc/loadavg") // best effort: empty off Linux
	return strings.TrimSpace(string(b))
}
