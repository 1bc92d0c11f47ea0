package runflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spawnsim/internal/faults"
	"spawnsim/internal/harness"
	"spawnsim/internal/sim"
	"spawnsim/internal/store"
)

// parse declares the shared flags on a fresh FlagSet (the guards too
// when guards is set), parses args and builds the pool.
func parse(t *testing.T, guards bool, args ...string) (*harness.Pool, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if guards {
		f.RegisterGuards(fs)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	pool, done, err := f.Pool("test")
	if err == nil {
		t.Cleanup(done)
	}
	return pool, err
}

func TestDefaultsApplyEverySetting(t *testing.T) {
	pool, err := parse(t, true,
		"-engine", "stepped", "-parallel", "3", "-chaos-plan", "mild", "-chaos-seed", "7",
		"-retries", "2", "-timeout", "3s", "-check", "-tolerate",
		"-stall-window", "100")
	if err != nil {
		t.Fatal(err)
	}
	if pool.Workers != 3 || pool.Context == nil {
		t.Fatalf("pool Workers=%d Context=%v, want 3 and a signal context", pool.Workers, pool.Context)
	}
	if pool.Store != nil {
		t.Fatal("pool has a store without -resume")
	}
	plan := faults.Mild(7)
	want := harness.Spec{
		Benchmark:       "MM-small",
		Engine:          sim.EngineStepped,
		Deadline:        3 * time.Second,
		CheckInvariants: true,
		Retries:         2,
		Tolerate:        true,
		StallWindow:     100,
		FaultPlan:       &plan,
	}
	got := harness.Spec{Benchmark: "MM-small"}
	pool.Defaults(&got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaults applied\n got %+v\nwant %+v", got, want)
	}
}

func TestDefaultsKeepSpecFaultPlan(t *testing.T) {
	pool, err := parse(t, true, "-chaos-plan", "mild", "-chaos-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	own := faults.Mild(99)
	s := harness.Spec{FaultPlan: &own}
	pool.Defaults(&s)
	if s.FaultPlan != &own || s.FaultPlan.Seed != 99 {
		t.Errorf("spec's own plan replaced: %+v", s.FaultPlan)
	}
}

func TestRegisterOnlyLeavesGuardsZero(t *testing.T) {
	pool, err := parse(t, false, "-engine", "stepped", "-retries", "1", "-chaos-plan", "mild")
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Mild(0)
	want := harness.Spec{Engine: sim.EngineStepped, Retries: 1, FaultPlan: &plan}
	var got harness.Spec
	pool.Defaults(&got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaults applied\n got %+v\nwant %+v", got, want)
	}
}

func TestPoolRejectsBadSettings(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "bogus"},
		{"-chaos-plan", "transit=1.5"},
		{"-retries", "-1"},
		{"-parallel", "-1"},
	} {
		if _, err := parse(t, false, args...); err == nil {
			t.Errorf("Pool accepted %q", args)
		}
	}
}

// TestResumeReportsStoredPoints: -resume opens DIR/store and reports
// the entries it holds, so the count stays the same over repeated
// resumes of one finished sweep; an empty store prints nothing, and a
// stray journal.jsonl left by an older checkpoint is ignored.
func TestResumeReportsStoredPoints(t *testing.T) {
	dir := t.TempDir()
	var err error
	if notice := captureStderr(t, func() { _, err = parse(t, true, "-resume", dir) }); err != nil || notice != "" {
		t.Fatalf("fresh checkpoint: err %v, notice %q; want neither", err, notice)
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, desc := range []string{"a", "b", "c"} {
		key, _ := store.Key("v1", desc)
		if err := st.Put(key, []byte(desc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(`{"v":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := "test: resuming over 3 stored points in " + dir + "\n"
	for i := 0; i < 2; i++ {
		var pool *harness.Pool
		notice := captureStderr(t, func() {
			if pool, err = parse(t, true, "-resume", dir); err != nil {
				t.Fatal(err)
			}
		})
		if pool.Store == nil {
			t.Fatal("-resume pool has no store")
		}
		if notice != want {
			t.Errorf("resume %d notice = %q, want %q", i+1, notice, want)
		}
	}
}

// captureStderr runs f with os.Stderr sent to a temp file and returns
// what f wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = saved }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
