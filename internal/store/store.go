// Package store is the crash-safety substrate under the sweep harness:
// a content-addressed result store, the one record of a checkpoint (see
// DESIGN.md §7). Because every simulation is a pure function of
// its fully-resolved spec — statically enforced by spawnvet's
// seedtaint/determinism analyzers — a serialized Outcome keyed by a
// canonical hash of that spec is a perfect memo: an interrupted sweep
// re-invoked over the same store replays its finished points byte-for-
// byte and re-runs only the missing ones.
//
// The store is deliberately paranoid about partial state. Writes go
// through a temp file in the same directory followed by an atomic
// rename, so a crash mid-write can never leave a half-entry under a
// valid key; reads treat every failure mode — missing file, unreadable
// file, truncated or corrupt JSON — as a cache miss, never an error,
// so a damaged store degrades to recomputation instead of wedging the
// sweep that tries to resume from it.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Store is a content-addressed result store rooted at one directory.
// Entries are opaque byte blobs keyed by the canonical spec hash; the
// harness owns the encoding. A nil *Store ignores Put and misses Get,
// so callers thread it unconditionally.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Len counts the entries in the store. A nil or unreadable store has
// none.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	entries, _ := filepath.Glob(filepath.Join(s.dir, "*", "*.json"))
	return len(entries)
}

// path shards entries by the first byte of the key so a long sweep does
// not pile thousands of files into one directory.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key+".json")
}

// Get returns the entry stored under key. Every failure mode — absent,
// unreadable, empty — is a miss, not an error: a corrupted store entry
// must cost a recomputation, never a crashed sweep.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil || key == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return data, true
}

// Put stores data under key atomically: the bytes land in a temp file
// in the entry's own directory and are renamed into place, so readers
// (including a concurrently resuming sweep) observe either the old
// complete entry or the new complete entry, never a torn write.
func (s *Store) Put(key string, data []byte) error {
	if s == nil {
		return nil
	}
	if key == "" {
		return fmt.Errorf("store: Put with empty key")
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", key, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// Key hashes a canonical description of a run into its content address.
// The description must marshal deterministically (fixed-order struct
// fields, no maps); version names the canonicalization so a future
// schema change invalidates old entries by construction instead of
// colliding with them.
func Key(version string, desc any) (string, error) {
	blob, err := json.Marshal(desc)
	if err != nil {
		return "", fmt.Errorf("store: canonicalize key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil)), nil
}
