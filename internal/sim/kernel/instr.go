package kernel

// InstrKind enumerates the abstract warp instruction classes the
// simulator times.
type InstrKind uint8

const (
	// InstrALU occupies the warp's issue slot and delays the next
	// dependent issue by Lat cycles.
	InstrALU InstrKind = iota
	// InstrMem issues one memory transaction per unique cache line among
	// the per-lane addresses; the warp blocks until the slowest returns.
	InstrMem
	// InstrLaunch is a device-side kernel-launch site: one entry per lane
	// that wants to spawn a child. The active launch policy decides each
	// candidate; results are written back into Exec.Accepted.
	InstrLaunch
	// InstrSync is cudaDeviceSynchronize: the warp waits until every
	// child kernel launched by its CTA has completed. By contract it is
	// the final instruction of a program that launches children.
	InstrSync
)

func (k InstrKind) String() string {
	switch k {
	case InstrALU:
		return "alu"
	case InstrMem:
		return "mem"
	case InstrLaunch:
		return "launch"
	case InstrSync:
		return "sync"
	default:
		return "instr?"
	}
}

// LaunchCandidate is one lane's proposed child kernel at a launch site:
// the child's code and CTA shape (Def) plus its launch configuration.
type LaunchCandidate struct {
	Lane     int  // lane index within the warp
	Workload int  // work items the child kernel would process
	Def      *Def // the child kernel definition (c_cta and the code)
	GridCTAs int  // the child's grid in CTAs (c_grid)
	Threads  int  // live threads of the grid (0 = GridCTAs × c_cta)
	Arg      int  // argument every child warp's Def.NewProgram receives
}

// Instr is one abstract warp instruction. Programs fill it in place
// (the engine reuses the backing arrays across calls).
type Instr struct {
	Kind  InstrKind
	Lat   uint32 // InstrALU: cycles until the next dependent issue
	Store bool   // InstrMem: store (true) or load (false)
	// Addrs holds one byte address per participating lane for InstrMem.
	Addrs []uint64
	// Candidates holds the per-lane launch proposals for InstrLaunch.
	Candidates []LaunchCandidate
}

// Reset clears the instruction for reuse, keeping slice capacity.
func (in *Instr) Reset() {
	in.Kind = InstrALU
	in.Lat = 0
	in.Store = false
	in.Addrs = in.Addrs[:0]
	in.Candidates = in.Candidates[:0]
}

// Exec is the execution context handed to Program.Next. The engine uses
// it to feed decisions back into the program (which lanes' launches were
// accepted) so the program can serialize the declined work.
type Exec struct {
	// Accepted[i] reports whether Candidates[i] of the previous
	// InstrLaunch was launched as a child kernel (or DTBL CTA group).
	// Declined lanes must be processed serially by the parent.
	Accepted []bool
}

// Program generates a warp's instruction stream.
type Program interface {
	// Next fills in the next instruction and returns true, or returns
	// false when the warp has no further instructions. The engine owns
	// in's storage between calls; programs must not retain it.
	Next(x *Exec, in *Instr) bool
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(x *Exec, in *Instr) bool

// Next implements Program.
func (f ProgramFunc) Next(x *Exec, in *Instr) bool { return f(x, in) }
