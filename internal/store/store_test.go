package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	key, err := Key("test-v1", struct{ A, B string }{"x", "y"})
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("Get before Put reported a hit")
	}
	want := []byte(`{"cycles":123}`)
	if err := s.Put(key, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != string(want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
	// Overwrite is atomic and replaces the payload.
	want2 := []byte(`{"cycles":456}`)
	if err := s.Put(key, want2); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	if got, ok := s.Get(key); !ok || string(got) != string(want2) {
		t.Fatalf("Get after overwrite = %q, %v", got, ok)
	}
}

func TestKeyIsStableAndSensitive(t *testing.T) {
	type desc struct{ Bench, Scheme string }
	a1, err := Key("v1", desc{"MM-small", "spawn"})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Key("v1", desc{"MM-small", "spawn"})
	if a1 != a2 {
		t.Fatalf("identical descriptions hashed differently: %s vs %s", a1, a2)
	}
	b, _ := Key("v1", desc{"MM-small", "flat"})
	if a1 == b {
		t.Fatal("different descriptions collided")
	}
	v2, _ := Key("v2", desc{"MM-small", "spawn"})
	if a1 == v2 {
		t.Fatal("version bump did not invalidate the key")
	}
}

func TestStoreCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	key, _ := Key("v1", "point")
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Truncate the entry to zero bytes: a miss, not a hit on garbage.
	if err := os.WriteFile(s.path(key), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("empty entry reported as a hit")
	}
	// A missing shard directory is also just a miss.
	if _, ok := s.Get("feedfacedeadbeef"); ok {
		t.Fatal("absent entry reported as a hit")
	}
	// Nil stores ignore both operations.
	var nils *Store
	if _, ok := nils.Get(key); ok {
		t.Fatal("nil store hit")
	}
	if err := nils.Put(key, []byte("x")); err != nil {
		t.Fatalf("nil store Put: %v", err)
	}
}

// TestStoreLenCountsEntries: Len counts one per stored key, whatever
// its shard, and ignores overwrites and a temp file a crashed Put left.
func TestStoreLenCountsEntries(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("fresh store Len = %d, want 0", n)
	}
	for _, desc := range []string{"a", "b", "a", "c"} {
		key, _ := Key("v1", desc)
		if err := s.Put(key, []byte(desc)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	key, _ := Key("v1", "a")
	torn := filepath.Join(filepath.Dir(s.path(key)), "."+key+".json.tmp-1")
	if err := os.WriteFile(torn, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
	var nils *Store
	if n := nils.Len(); n != 0 {
		t.Errorf("nil store Len = %d, want 0", n)
	}
}

// TestMemoryStoreConcurrent: a Memory store serves Get and Put from
// many goroutines (CI runs it under -race), misses an unknown key, keeps
// its own copy of what was put, and Len counts its entries.
func TestMemoryStoreConcurrent(t *testing.T) {
	s := Memory()
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key, _ := Key("v1", i)
			data := []byte(fmt.Sprint(i))
			if err := s.Put(key, data); err != nil {
				t.Errorf("Put: %v", err)
			}
			data[0] = 'x'
			for j := 0; j <= i; j++ {
				other, _ := Key("v1", j)
				s.Get(other)
			}
			if got, ok := s.Get(key); !ok || string(got) != fmt.Sprint(i) {
				t.Errorf("Get(%d) = %q, %v", i, got, ok)
			}
		}(i)
	}
	wg.Wait()
	if _, ok := s.Get("feedfacedeadbeef"); ok {
		t.Error("unknown key reported as a hit")
	}
	if got := s.Len(); got != n {
		t.Errorf("Len = %d, want %d", got, n)
	}
}
