package service

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"repro/internal/castore"
	"repro/internal/lru"
)

// Store is a fixed-capacity in-memory LRU of completed run results keyed
// by canonical spec hash, optionally layered over a disk-backed
// content-addressed store (read-through on Get, write-behind on Put).
// Results are small (a flat metrics struct), so the memory tier bounds
// daemon memory even though the underlying simulations are not retained;
// the disk tier makes results survive a restart.
//
// Get returns a private copy: callers own what they receive and cannot
// mutate the cached entry (or each other's view of it) through the
// returned pointer.
type Store struct {
	mem *lru.Cache[*RunResult] // one unit per result, budget = capacity

	// disk is the durable tier; nil runs memory-only. Writes flow through
	// diskCh to a single writer goroutine so simulation workers never
	// block on disk IO or the castore lock; a write that finds the queue
	// full is dropped and counted in dropped.
	disk      *castore.Store
	diskCh    chan diskWrite
	diskDone  chan struct{}
	diskClose sync.Once
	dropped   atomic.Uint64
}

// diskWrite is one queued write-behind operation.
type diskWrite struct {
	key     string
	payload []byte
}

// NewStore builds a memory-only store holding at most capacity results.
func NewStore(capacity int) *Store { return NewStoreWithDisk(capacity, nil) }

// NewStoreWithDisk builds a store layered over disk (which may be nil for
// memory-only). The caller hands ownership of disk to the store; Close
// flushes pending writes into it.
func NewStoreWithDisk(capacity int, disk *castore.Store) *Store {
	if capacity < 1 {
		capacity = 1
	}
	st := &Store{mem: lru.New[*RunResult](int64(capacity), nil), disk: disk}
	if disk != nil {
		st.diskCh = make(chan diskWrite, 64)
		st.diskDone = make(chan struct{})
		go st.diskWriter()
	}
	return st
}

// diskWriter drains queued writes into the castore.
func (st *Store) diskWriter() {
	defer close(st.diskDone)
	for w := range st.diskCh {
		// Errors are already counted in the castore's own stats
		// (slip_castore_errors); a failed write just means this result is
		// memory-only until re-simulated.
		_ = st.disk.Put(w.key, w.payload)
	}
}

// Get returns a copy of the cached result for key, promoting it to most
// recent. A memory miss falls through to the disk tier; a disk hit is
// promoted back into memory.
func (st *Store) Get(key string) (*RunResult, bool) {
	if res, ok := st.mem.Peek(key); ok {
		return res.Clone(), true
	}
	if st.disk == nil {
		return nil, false
	}
	payload, ok := st.disk.Get(key)
	if !ok {
		return nil, false
	}
	var res RunResult
	if err := json.Unmarshal(payload, &res); err != nil {
		// The checksum passed, so this is a format drift (e.g. an old
		// incompatible entry), not corruption; treat as a miss.
		return nil, false
	}
	st.mem.Put(key, &res)
	return res.Clone(), true
}

// Put inserts (or refreshes) a result in memory and queues the durable
// write without waiting: when the queue is full the write is dropped and
// counted, and the result stays memory-only until re-simulated. The store
// keeps its own copy, so later caller-side mutation of res cannot corrupt
// the cache.
func (st *Store) Put(key string, res *RunResult) {
	kept := res.Clone()
	st.mem.Put(key, kept)
	if st.disk == nil {
		return
	}
	if payload, err := json.Marshal(kept); err == nil {
		select {
		case st.diskCh <- diskWrite{key: key, payload: payload}:
		default:
			st.dropped.Add(1)
		}
	}
}

// Close flushes queued disk writes. Memory-only stores close trivially.
// Callers must not Put after Close; the server only closes once its
// workers have exited.
func (st *Store) Close() {
	if st.disk == nil {
		return
	}
	st.diskClose.Do(func() {
		close(st.diskCh)
	})
	<-st.diskDone
}

// DiskStats snapshots the durable tier's counters, with writes dropped on
// a full queue counted in Errors; all zeros when the store is
// memory-only.
func (st *Store) DiskStats() castore.Stats {
	if st.disk == nil {
		return castore.Stats{}
	}
	ds := st.disk.Stats()
	ds.Errors += st.dropped.Load()
	return ds
}

// Len is the current number of memory-cached results.
func (st *Store) Len() int { return st.mem.Stats().Entries }

// Evictions counts memory entries dropped to stay within capacity.
func (st *Store) Evictions() uint64 { return st.mem.Stats().Evictions }
