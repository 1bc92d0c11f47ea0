// Package config holds the simulated GPU configuration.
//
// The default configuration mirrors Table II of the SPAWN paper
// (Tang et al., HPCA 2017): an NVIDIA Kepler K20m-class GPU as modelled
// by the paper's modified GPGPU-Sim v3.2.2.
package config

import (
	"fmt"

	"spawnsim/internal/sim/kernel"
)

// GPU describes every hardware parameter the simulator consumes.
// The zero value is not useful; start from K20m() and override fields.
//
// Dimensioned fields use the kernel unit types (see DESIGN.md §5):
// latencies are kernel.Cycle, capacities kernel.Bytes, thread slots
// kernel.ThreadCount. Pure counts (SMXs, ways, queues) stay int.
type GPU struct {
	// Cores.
	NumSMX          int                // streaming multiprocessors
	WarpSize        int                // threads per warp (warp geometry divisor)
	MaxThreadsPerSM kernel.ThreadCount // hardware thread slots per SMX
	MaxCTAsPerSM    int                // concurrent CTA slots per SMX
	RegistersPerSM  int                // register-file entries per SMX (see DESIGN.md note)
	SharedMemPerSM  kernel.Bytes       // shared memory per SMX
	SchedulersPerSM int                // warp schedulers per SMX (dual GTO in Table II)

	// Kernel management.
	NumHWQs         int          // hardware work queues (max concurrent kernels)
	MaxPendingCTAs  int          // CCQS / pending-pool capacity (65,536 on Kepler)
	CTADispatchRate int          // CTAs the GMU may dispatch per cycle
	LaunchOverheadA kernel.Cycle // per-kernel slope of the launch latency model
	LaunchOverheadB kernel.Cycle // base launch latency
	LaunchAPICycles kernel.Cycle // cycles the launching warp is busy in the API call
	SyncCheckCycles kernel.Cycle // polling granularity for DeviceSynchronize wake-up
	// MaxPendingLaunches bounds a warp's in-flight device launches (the
	// CUDA device-runtime pending-launch buffer). A warp whose pool is
	// full stalls until older launches reach the GMU, which is what
	// spreads launch decisions over the run. A launch holds its slot
	// for about A + B cycles, so a pool of C sustains one launch per A
	// cycles only when C >= B/A + 1 (about 12.7 at Table II values);
	// the K20m value of 8 lets a saturated warp issue at most 8
	// launches per A + B cycles, about one per 2,741 cycles.
	MaxPendingLaunches int

	// Memory system.
	CacheLineBytes   kernel.Bytes
	L1Bytes          kernel.Bytes // per-SMX L1 data cache
	L1Ways           int
	L1HitLatency     kernel.Cycle
	L2PartitionBytes kernel.Bytes // per-partition L2 slice
	L2Partitions     int          // total slices (MemControllers * PartitionsPerMC)
	L2Ways           int
	L2HitLatency     kernel.Cycle
	MemControllers   int
	PartitionsPerMC  int
	BanksPerMC       int
	RowBytes         kernel.Bytes // DRAM row-buffer size
	DRAMRowHitLat    kernel.Cycle // additional cycles for a row-buffer hit
	DRAMRowMissLat   kernel.Cycle // additional cycles for a row-buffer miss
	DRAMCyclesPerReq kernel.Cycle // per-request occupancy of a bank (service rate)
	InterconnectLat  kernel.Cycle // one-way crossbar latency

	// SPAWN controller (Section IV-B).
	SpawnWindow kernel.Cycle // metric-averaging window in cycles (power of two)
}

// K20m returns the Table II configuration.
func K20m() GPU {
	return GPU{
		NumSMX:          13,
		WarpSize:        32,
		MaxThreadsPerSM: 2048,
		MaxCTAsPerSM:    16,
		RegistersPerSM:  65536,
		SharedMemPerSM:  48 * 1024,
		SchedulersPerSM: 2,

		NumHWQs:            32,
		MaxPendingCTAs:     65536,
		CTADispatchRate:    2,
		LaunchOverheadA:    1721,
		LaunchOverheadB:    20210,
		LaunchAPICycles:    40,
		SyncCheckCycles:    16,
		MaxPendingLaunches: 8,

		CacheLineBytes:   128,
		L1Bytes:          16 * 1024,
		L1Ways:           4,
		L1HitLatency:     28,
		L2PartitionBytes: 128 * 1024,
		L2Partitions:     12,
		L2Ways:           8,
		L2HitLatency:     120,
		MemControllers:   6,
		PartitionsPerMC:  2,
		BanksPerMC:       8,
		RowBytes:         2048,
		DRAMRowHitLat:    100,
		DRAMRowMissLat:   220,
		DRAMCyclesPerReq: 4,
		InterconnectLat:  8,

		SpawnWindow: 1024,
	}
}

// MaxWarpsPerSM is the hardware warp-slot count per SMX.
func (g GPU) MaxWarpsPerSM() int { return int(g.MaxThreadsPerSM) / g.WarpSize }

// MaxConcurrentCTAs is the system-wide CTA concurrency limit.
func (g GPU) MaxConcurrentCTAs() int { return g.NumSMX * g.MaxCTAsPerSM }

// L2TotalBytes is the aggregate L2 capacity across partitions.
func (g GPU) L2TotalBytes() kernel.Bytes { return g.L2PartitionBytes.Times(g.L2Partitions) }

// LaunchLatency returns the cycles until the x-th concurrently pending
// child-kernel launch from one warp becomes visible in the GMU pending
// pool: latency = A*x + b (Table II, after Wang et al.). x counts from 1.
func (g GPU) LaunchLatency(x int) kernel.Cycle {
	if x < 1 {
		x = 1
	}
	return g.LaunchOverheadA.Times(x) + g.LaunchOverheadB
}

// Validate reports the first configuration inconsistency found.
func (g GPU) Validate() error {
	switch {
	case g.NumSMX <= 0:
		return fmt.Errorf("config: NumSMX must be positive, got %d", g.NumSMX)
	case g.WarpSize <= 0:
		return fmt.Errorf("config: WarpSize must be positive, got %d", g.WarpSize)
	case g.MaxThreadsPerSM%kernel.ThreadCount(g.WarpSize) != 0:
		return fmt.Errorf("config: MaxThreadsPerSM (%d) must be a multiple of WarpSize (%d)",
			g.MaxThreadsPerSM, g.WarpSize)
	case g.MaxCTAsPerSM <= 0:
		return fmt.Errorf("config: MaxCTAsPerSM must be positive, got %d", g.MaxCTAsPerSM)
	case g.MaxThreadsPerSM <= 0:
		return fmt.Errorf("config: MaxThreadsPerSM must be positive, got %d", g.MaxThreadsPerSM)
	case g.SchedulersPerSM <= 0:
		return fmt.Errorf("config: SchedulersPerSM must be positive, got %d", g.SchedulersPerSM)
	case g.RegistersPerSM <= 0:
		return fmt.Errorf("config: RegistersPerSM must be positive, got %d", g.RegistersPerSM)
	case g.SharedMemPerSM <= 0:
		return fmt.Errorf("config: SharedMemPerSM must be positive, got %d", g.SharedMemPerSM)
	case g.NumHWQs <= 0:
		return fmt.Errorf("config: NumHWQs must be positive, got %d", g.NumHWQs)
	case g.CacheLineBytes <= 0 || g.CacheLineBytes&(g.CacheLineBytes-1) != 0:
		return fmt.Errorf("config: CacheLineBytes must be a positive power of two, got %d", g.CacheLineBytes)
	case g.L1Ways <= 0 || g.L2Ways <= 0:
		return fmt.Errorf("config: cache associativity must be positive, got L1 %d-way, L2 %d-way",
			g.L1Ways, g.L2Ways)
	case g.MemControllers <= 0 || g.PartitionsPerMC <= 0 || g.BanksPerMC <= 0:
		return fmt.Errorf("config: DRAM topology must be positive, got %d MCs x %d partitions, %d banks/MC",
			g.MemControllers, g.PartitionsPerMC, g.BanksPerMC)
	// The memory model routes a line to its DRAM bank with a mask and to
	// its row with a shift (mem.Hierarchy.route).
	case g.BanksPerMC&(g.BanksPerMC-1) != 0:
		return fmt.Errorf("config: BanksPerMC must be a power of two, got %d", g.BanksPerMC)
	case g.RowBytes < g.CacheLineBytes || g.RowBytes&(g.RowBytes-1) != 0:
		return fmt.Errorf("config: RowBytes must be a power of two no smaller than CacheLineBytes (%d), got %d",
			g.CacheLineBytes, g.RowBytes)
	case g.LaunchOverheadA < 0 || g.LaunchOverheadB < 0:
		return fmt.Errorf("config: launch overheads must be non-negative, got A=%d b=%d",
			g.LaunchOverheadA, g.LaunchOverheadB)
	case g.MaxPendingLaunches < 0:
		return fmt.Errorf("config: MaxPendingLaunches must be non-negative, got %d", g.MaxPendingLaunches)
	case g.L1Bytes%g.CacheLineBytes.Times(g.L1Ways) != 0:
		return fmt.Errorf("config: L1 size %dB not divisible into %d-way sets of %dB lines",
			g.L1Bytes, g.L1Ways, g.CacheLineBytes)
	case g.L2PartitionBytes%g.CacheLineBytes.Times(g.L2Ways) != 0:
		return fmt.Errorf("config: L2 partition size %dB not divisible into %d-way sets of %dB lines",
			g.L2PartitionBytes, g.L2Ways, g.CacheLineBytes)
	case g.L2Partitions != g.MemControllers*g.PartitionsPerMC:
		return fmt.Errorf("config: L2Partitions (%d) != MemControllers (%d) * PartitionsPerMC (%d)",
			g.L2Partitions, g.MemControllers, g.PartitionsPerMC)
	case g.SpawnWindow == 0 || g.SpawnWindow&(g.SpawnWindow-1) != 0:
		return fmt.Errorf("config: SpawnWindow must be a power of two, got %d", g.SpawnWindow)
	case g.CTADispatchRate <= 0:
		return fmt.Errorf("config: CTADispatchRate must be positive, got %d", g.CTADispatchRate)
	}
	return nil
}

// TableII renders the configuration in the layout of the paper's Table II.
func (g GPU) TableII() string {
	return fmt.Sprintf(`GPU configuration parameters (Table II)
SMX            %d SMXs, dual warp scheduler (GTO), RR CTA scheduler
Resources/SMX  %dKB shared memory, %d registers, max %d threads (%d warps, %d threads/warp), %d CTAs
L1D/SMX        %dKB %d-way, %dB lines
L2             %dKB/partition, %d partitions, %dKB total, %d-way
Concurrency    %d CTAs/SMX, %d HWQs across all SMXs
DRAM           %d MCs x %d partitions, %d banks/MC, FR-FCFS-approx
Launch         latency = %d*x + %d cycles (x = child kernels launched per warp)`,
		g.NumSMX,
		g.SharedMemPerSM/1024, g.RegistersPerSM, g.MaxThreadsPerSM, g.MaxWarpsPerSM(), g.WarpSize, g.MaxCTAsPerSM,
		g.L1Bytes/1024, g.L1Ways, g.CacheLineBytes,
		g.L2PartitionBytes/1024, g.L2Partitions, g.L2TotalBytes()/1024, g.L2Ways,
		g.MaxCTAsPerSM, g.NumHWQs,
		g.MemControllers, g.PartitionsPerMC, g.BanksPerMC,
		g.LaunchOverheadA, g.LaunchOverheadB)
}
