// Package castore implements a disk-backed content-addressed store of
// finished run results: spec hash -> result JSON. It is the durable tier
// under the slipd in-memory result store — results written here survive a
// daemon restart, so a daemon asked for a key it simulated last week
// serves it from disk instead of re-simulating.
//
// Layout under the store directory:
//
//	objects/<fan>/<sha256(key)>.entry   one entry per key (fan = first 2 hex)
//	tmp/                                staging for atomic writes
//	index.json                          LRU order + sizes (MRU first)
//
// Every write goes tmp file -> optional fsync -> rename, so a crash leaves
// either the old entry or the new one, never a torn file; leftover tmp
// files are deleted on reopen. Every read re-verifies the entry's embedded
// key and payload checksum — a truncated or corrupted file is detected,
// deleted, counted in Stats.Errors and reported as a miss, never returned.
// The index file bounds the store to a byte budget with LRU eviction; a
// missing or corrupt index is rebuilt from a directory scan (mtime order),
// so the index is a cache of the truth on disk, not the truth itself.
package castore

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
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

// indexEntry is one persisted LRU slot.
type indexEntry struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
}

// indexFile is the persisted LRU order, most recently used first.
type indexFile struct {
	V       int          `json:"v"`
	Entries []indexEntry `json:"entries"`
}

// item is one in-memory LRU node.
type item struct {
	key  string
	size int64
}

// Store is a disk-backed content-addressed key -> payload store with LRU
// byte budgeting. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	hits, misses, errs, evictions uint64
}

const (
	objectsDir = "objects"
	tmpDir     = "tmp"
	indexName  = "index.json"
	entryExt   = ".entry"
)

// Open opens (creating if needed) the store rooted at dir. Leftover
// temporary files from interrupted writes are removed; the LRU index is
// loaded from index.json or, when that is missing or unreadable, rebuilt
// by scanning the object tree.
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
	if !s.loadIndex() {
		if err := s.rebuildIndex(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// entryPath maps a key to its fanned-out object path. Hashing the key
// keeps arbitrary key strings (prefixes, colons) filesystem-safe.
func (s *Store) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, objectsDir, name[:2], name+entryExt)
}

// loadIndex restores the LRU from index.json, dropping entries whose file
// has vanished. It reports false when the index is missing or corrupt, in
// which case the caller rebuilds from a scan.
func (s *Store) loadIndex() bool {
	raw, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil {
		return false
	}
	var idx indexFile
	if json.Unmarshal(raw, &idx) != nil || idx.V != 1 {
		return false
	}
	for _, e := range idx.Entries { // MRU first: PushBack keeps the order
		if e.Key == "" || s.items[e.Key] != nil {
			continue
		}
		if fi, err := os.Stat(s.entryPath(e.Key)); err != nil || fi.Size() != e.Size {
			continue // entry vanished or changed size behind the index
		}
		s.items[e.Key] = s.ll.PushBack(&item{key: e.Key, size: e.Size})
		s.bytes += e.Size
	}
	return true
}

// rebuildIndex reconstructs the LRU by scanning the object tree, ordering
// entries by file modification time (newest = most recently used). Files
// whose header does not parse are deleted and counted as errors.
func (s *Store) rebuildIndex() error {
	type found struct {
		key   string
		size  int64
		mtime int64
	}
	var entries []found
	root := filepath.Join(s.dir, objectsDir)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != entryExt {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		key, ok := readEntryKey(path)
		if !ok {
			s.errs++
			_ = os.Remove(path)
			return nil
		}
		entries = append(entries, found{key: key, size: fi.Size(), mtime: fi.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("castore: rebuilding index: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime > entries[j].mtime })
	for _, e := range entries {
		if s.items[e.key] != nil {
			continue
		}
		s.items[e.key] = s.ll.PushBack(&item{key: e.key, size: e.size})
		s.bytes += e.size
	}
	return s.persistIndexLocked()
}

// readEntryKey parses just the header line of an entry file.
func readEntryKey(path string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 4096)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return "", false
	}
	var h header
	if json.Unmarshal(line, &h) != nil || h.V != 1 || h.Key == "" {
		return "", false
	}
	return h.Key, true
}

// Get returns the stored payload for key. A missing entry is a plain
// miss; an entry that fails verification (wrong embedded key, truncated
// payload, checksum mismatch) is deleted, counted as an error and
// reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses++
		return nil, false
	}
	payload, err := s.readVerified(key)
	if err != nil {
		s.errs++
		s.misses++
		s.dropLocked(el)
		_ = s.persistIndexLocked()
		return nil, false
	}
	s.ll.MoveToFront(el)
	s.hits++
	return payload, true
}

// readVerified reads and fully verifies one entry file.
func (s *Store) readVerified(key string) ([]byte, error) {
	raw, err := os.ReadFile(s.entryPath(key))
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
// payload that alone exceeds the budget is not stored.
func (s *Store) Put(key string, payload []byte) error {
	size, err := s.writeEntry(key, payload)
	if err != nil {
		s.mu.Lock()
		s.errs++
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		it := el.Value.(*item)
		s.bytes += size - it.size
		it.size = size
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&item{key: key, size: size})
		s.bytes += size
	}
	s.evictLocked()
	return s.persistIndexLocked()
}

// writeEntry stages header+payload in tmp/ and renames it into place;
// the rename is the commit point.
func (s *Store) writeEntry(key string, payload []byte) (int64, error) {
	sum := sha256.Sum256(payload)
	head, err := json.Marshal(header{V: 1, Key: key, Len: int64(len(payload)), Sum: hex.EncodeToString(sum[:])})
	if err != nil {
		return 0, fmt.Errorf("castore: %w", err)
	}
	f, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), "put-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("castore: %w", err)
	}
	tmpName := f.Name()
	cleanup := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("castore: %w", err)
	}
	if _, err := f.Write(head); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
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
		return 0, fmt.Errorf("castore: %w", err)
	}
	dst := s.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("castore: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("castore: %w", err)
	}
	if s.opts.Fsync {
		syncDir(filepath.Dir(dst))
	}
	return int64(len(head)) + 1 + int64(len(payload)), nil
}

// dropLocked removes one entry from the index and disk.
func (s *Store) dropLocked(el *list.Element) {
	it := el.Value.(*item)
	s.ll.Remove(el)
	delete(s.items, it.key)
	s.bytes -= it.size
	_ = os.Remove(s.entryPath(it.key))
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

// persistIndexLocked atomically rewrites index.json in MRU-first order.
func (s *Store) persistIndexLocked() error {
	idx := indexFile{V: 1, Entries: make([]indexEntry, 0, s.ll.Len())}
	for el := s.ll.Front(); el != nil; el = el.Next() {
		it := el.Value.(*item)
		idx.Entries = append(idx.Entries, indexEntry{Key: it.key, Size: it.size})
	}
	raw, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	tmp := filepath.Join(s.dir, tmpDir, "index.tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, indexName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("castore: %w", err)
	}
	if s.opts.Fsync {
		syncDir(s.dir)
	}
	return nil
}

// syncDir best-effort fsyncs a directory so a rename survives power loss.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Close persists the final LRU order. The store holds no open files
// between calls, so Close is the only shutdown obligation.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistIndexLocked()
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
