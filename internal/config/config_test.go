package config

import (
	"strings"
	"testing"

	"spawnsim/internal/sim/kernel"
)

func TestK20mValid(t *testing.T) {
	if err := K20m().Validate(); err != nil {
		t.Fatalf("K20m config invalid: %v", err)
	}
}

func TestK20mDerived(t *testing.T) {
	g := K20m()
	if got, want := g.MaxWarpsPerSM(), 64; got != want {
		t.Errorf("MaxWarpsPerSM = %d, want %d", got, want)
	}
	if got, want := g.MaxConcurrentCTAs(), 208; got != want {
		t.Errorf("MaxConcurrentCTAs = %d, want %d", got, want)
	}
	if got, want := g.L2TotalBytes(), kernel.Bytes(1536*1024); got != want {
		t.Errorf("L2TotalBytes = %d, want %d", got, want)
	}
}

func TestLaunchLatency(t *testing.T) {
	g := K20m()
	tests := []struct {
		x    int
		want kernel.Cycle
	}{
		{1, 1721 + 20210},
		{2, 2*1721 + 20210},
		{10, 10*1721 + 20210},
		{0, 1721 + 20210},  // clamped to 1
		{-3, 1721 + 20210}, // clamped to 1
	}
	for _, tc := range tests {
		if got := g.LaunchLatency(tc.x); got != tc.want {
			t.Errorf("LaunchLatency(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*GPU)
	}{
		{"zero SMX", func(g *GPU) { g.NumSMX = 0 }},
		{"zero warp size", func(g *GPU) { g.WarpSize = 0 }},
		{"threads not multiple of warp", func(g *GPU) { g.MaxThreadsPerSM = 2047 }},
		{"zero CTAs", func(g *GPU) { g.MaxCTAsPerSM = 0 }},
		{"zero HWQs", func(g *GPU) { g.NumHWQs = 0 }},
		{"non-pow2 line", func(g *GPU) { g.CacheLineBytes = 100 }},
		{"bad L1 geometry", func(g *GPU) { g.L1Bytes = 1000 }},
		{"bad L2 geometry", func(g *GPU) { g.L2PartitionBytes = 1000 }},
		{"partition mismatch", func(g *GPU) { g.L2Partitions = 7 }},
		{"non-pow2 banks", func(g *GPU) { g.BanksPerMC = 6 }},
		{"non-pow2 row", func(g *GPU) { g.RowBytes = 3072 }},
		{"row smaller than a line", func(g *GPU) { g.RowBytes = 64 }},
		{"zero row", func(g *GPU) { g.RowBytes = 0 }},
		{"non-pow2 window", func(g *GPU) { g.SpawnWindow = 1000 }},
		{"zero dispatch rate", func(g *GPU) { g.CTADispatchRate = 0 }},
	}
	for _, tc := range mutations {
		g := K20m()
		tc.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestTableIIMentionsKeyParameters(t *testing.T) {
	s := K20m().TableII()
	for _, want := range []string{"13 SMXs", "32 HWQs", "1721", "20210", "1536KB", "GTO"} {
		if !strings.Contains(s, want) {
			t.Errorf("TableII output missing %q:\n%s", want, s)
		}
	}
}
