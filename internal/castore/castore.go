// Package castore implements a disk-backed content-addressed store of
// finished run results: spec hash -> result JSON. It is the durable tier
// under the slipd in-memory result store — results written here survive a
// daemon restart, so a daemon asked for a key it simulated last week
// serves it from disk instead of re-simulating.
//
// Layout under the store directory:
//
//	objects/<fan>/<name>.entry   one entry per key (name = sha256(key) hex, fan = its first 2 hex)
//	tmp/                         staging for atomic writes
//
// Every write goes tmp file -> optional fsync -> rename, so a crash leaves
// either the old entry or the new one, never a torn file; leftover tmp
// files are deleted on reopen. Every read re-verifies the entry's embedded
// key and payload checksum — a truncated or corrupted file is detected,
// deleted, counted in Stats.Errors and reported as a miss, never returned.
//
// The object tree is the store's only index. Open walks objects/ once,
// stats each entry and orders the LRU by modification time, newest first;
// it never reads an entry, so a bad one is found by the Get that reads it.
// A Get that serves an entry refreshes its mtime, so recency survives a
// restart, a kill -9 included. The byte budget evicts from the LRU's tail.
package castore

import (
	"bytes"
	"cmp"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// Options tune one store. The zero value is a valid unlimited-budget,
// no-fsync configuration.
type Options struct {
	// MaxBytes bounds the total size of entry files on disk; the least
	// recently used entries are deleted to stay within it. <= 0 means
	// unlimited.
	MaxBytes int64
	// Fsync, when set, fsyncs entry files before the rename that makes
	// them visible (and the directory after), trading write latency for
	// power-loss durability. Off, a kill(9) still cannot tear an entry —
	// only lose the newest ones.
	Fsync bool
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits      uint64 // Gets served from a verified entry
	Misses    uint64 // Gets with no (valid) entry
	Errors    uint64 // corrupt/truncated entries detected and dropped, failed writes
	Evictions uint64 // entries deleted by the byte budget
	Entries   int    // entries currently indexed
	Bytes     int64  // bytes currently indexed
}

// header is the first line of an entry file; the payload follows the
// newline. Len and Sum make truncation and corruption detectable.
type header struct {
	V   int    `json:"v"`
	Key string `json:"key"`
	Len int64  `json:"len"`
	Sum string `json:"sum"` // sha256 hex of the payload bytes
}

// item is one in-memory LRU node, named like its entry file.
type item struct {
	name string
	size int64
}

// Store is a disk-backed content-addressed key -> payload store with LRU
// byte budgeting. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // by object name
	bytes int64

	hits, misses, errs, evictions uint64
}

const (
	objectsDir = "objects"
	tmpDir     = "tmp"
	entryExt   = ".entry"
)

// Open opens (creating if needed) the store rooted at dir. Leftover
// temporary files from interrupted writes are removed, and the LRU is
// built from one walk of the object tree.
func Open(dir string, opts Options) (*Store, error) {
	for _, d := range []string{filepath.Join(dir, objectsDir), filepath.Join(dir, tmpDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("castore: %w", err)
		}
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
	// Partial writes never became entries (rename is the commit point);
	// their staging files are garbage.
	if tmps, err := os.ReadDir(filepath.Join(dir, tmpDir)); err == nil {
		for _, e := range tmps {
			_ = os.Remove(filepath.Join(dir, tmpDir, e.Name()))
		}
	}
	type found struct {
		item
		mtime int64
	}
	var entries []found
	err := filepath.WalkDir(filepath.Join(dir, objectsDir), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name, ok := strings.CutSuffix(d.Name(), entryExt)
		// Only a file at the path its own name maps to is an entry, so no
		// name is indexed twice and eviction deletes the file it counted.
		if !ok || len(name) != 2*sha256.Size || path != s.objectPath(name) {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil // deleted mid-walk
		}
		entries = append(entries, found{item{name, fi.Size()}, fi.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("castore: scanning objects: %w", err)
	}
	slices.SortFunc(entries, func(a, b found) int {
		return cmp.Or(cmp.Compare(b.mtime, a.mtime), strings.Compare(a.name, b.name))
	})
	for _, e := range entries {
		s.items[e.name] = s.ll.PushBack(&item{e.name, e.size})
		s.bytes += e.size
	}
	s.evictLocked()
	return s, nil
}

// objectName is the file name stem of key's entry. Hashing the key keeps
// arbitrary key strings (prefixes, colons) filesystem-safe.
func objectName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// objectPath maps an object name to its fanned-out entry path.
func (s *Store) objectPath(name string) string {
	return filepath.Join(s.dir, objectsDir, name[:2], name+entryExt)
}

// Get returns the stored payload for key. A missing entry is a plain
// miss; an entry that fails verification (wrong embedded key, truncated
// payload, checksum mismatch) is deleted, counted as an error and
// reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	name := objectName(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[name]
	if !ok {
		s.misses++
		return nil, false
	}
	path := s.objectPath(name)
	payload, err := readVerified(path, key)
	if err != nil {
		s.errs++
		s.misses++
		s.dropLocked(el)
		return nil, false
	}
	// The mtime is the recency a reopen sees. It is only a hint, so a
	// failure to set it costs ordering, never data.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	s.ll.MoveToFront(el)
	s.hits++
	return payload, true
}

// readVerified reads and fully verifies key's entry file at path.
func readVerified(path, key string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("castore: entry for %q has no header line", key)
	}
	var h header
	if err := json.Unmarshal(raw[:nl], &h); err != nil {
		return nil, fmt.Errorf("castore: entry header for %q: %w", key, err)
	}
	payload := raw[nl+1:]
	if h.V != 1 || h.Key != key {
		return nil, fmt.Errorf("castore: entry claims key %q, want %q", h.Key, key)
	}
	if int64(len(payload)) != h.Len {
		return nil, fmt.Errorf("castore: entry for %q truncated: %d of %d payload bytes", key, len(payload), h.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.Sum {
		return nil, fmt.Errorf("castore: entry for %q fails checksum", key)
	}
	return payload, nil
}

// Put stores payload under key, replacing any existing entry, then
// evicts least-recently-used entries until the byte budget holds. A
// payload whose entry alone exceeds the budget is not stored, and
// nothing is evicted for it.
func (s *Store) Put(key string, payload []byte) error {
	sum := sha256.Sum256(payload)
	head, err := json.Marshal(header{V: 1, Key: key, Len: int64(len(payload)), Sum: hex.EncodeToString(sum[:])})
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	head = append(head, '\n')
	size := int64(len(head) + len(payload))
	if s.opts.MaxBytes > 0 && size > s.opts.MaxBytes {
		return nil
	}
	name := objectName(key)
	if err := s.writeEntry(s.objectPath(name), head, payload); err != nil {
		s.mu.Lock()
		s.errs++
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[name]; ok {
		it := el.Value.(*item)
		s.bytes += size - it.size
		it.size = size
		s.ll.MoveToFront(el)
	} else {
		s.items[name] = s.ll.PushFront(&item{name, size})
		s.bytes += size
	}
	s.evictLocked()
	return nil
}

// writeEntry stages head+payload in tmp/ and renames it to dst; the
// rename is the commit point.
func (s *Store) writeEntry(dst string, head, payload []byte) error {
	f, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	tmpName := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmpName)
		return fmt.Errorf("castore: %w", err)
	}
	if _, err := f.Write(head); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(payload); err != nil {
		return cleanup(err)
	}
	if s.opts.Fsync {
		if err := f.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("castore: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("castore: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("castore: %w", err)
	}
	if s.opts.Fsync {
		syncDir(filepath.Dir(dst))
	}
	return nil
}

// dropLocked removes one entry from the LRU and disk.
func (s *Store) dropLocked(el *list.Element) {
	it := el.Value.(*item)
	s.ll.Remove(el)
	delete(s.items, it.name)
	s.bytes -= it.size
	_ = os.Remove(s.objectPath(it.name))
}

// evictLocked deletes LRU entries until the byte budget holds.
func (s *Store) evictLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.opts.MaxBytes && s.ll.Len() > 0 {
		s.dropLocked(s.ll.Back())
		s.evictions++
	}
}

// syncDir best-effort fsyncs a directory so a rename survives power loss.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Len is the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes is the indexed on-disk footprint.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Errors:    s.errs,
		Evictions: s.evictions,
		Entries:   s.ll.Len(),
		Bytes:     s.bytes,
	}
}
