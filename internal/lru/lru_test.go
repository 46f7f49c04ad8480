package lru

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value is a fill that returns v and counts its calls.
func value(v int, calls *atomic.Int32) func(context.Context) (int, error) {
	return func(context.Context) (int, error) {
		calls.Add(1)
		return v, nil
	}
}

// TestGetSingleflight: concurrent Gets for one key run one fill, all
// callers see its value, and every caller but the filler counts as a hit.
func TestGetSingleflight(t *testing.T) {
	c := New[*int](0, nil)
	release := make(chan struct{})
	var fills atomic.Int32
	fill := func(context.Context) (*int, error) {
		fills.Add(1)
		<-release // hold the flight open until every caller has arrived
		v := 42
		return &v, nil
	}
	const callers = 16
	got := make([]*int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Get(context.Background(), "k", fill)
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			got[i] = v
		}(i)
	}
	waitFor(t, func() bool { return c.Stats().Hits+c.Stats().Misses == callers })
	close(release)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
	for i, v := range got {
		if v != got[0] || v == nil || *v != 42 {
			t.Errorf("caller %d got %v, want the one filled value", i, v)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, %d hits, 1 entry", st, callers-1)
	}
}

// TestFailedFillLeavesNoEntry: a pre-cancelled Get never fills; a fill that
// fails or is cancelled returns its error and keeps nothing, and the next
// Get runs a fresh fill.
func TestFailedFillLeavesNoEntry(t *testing.T) {
	c := New[int](0, nil)
	var fills atomic.Int32

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(cancelled, "k", value(1, &fills)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Get = %v, want context.Canceled", err)
	}
	if fills.Load() != 0 {
		t.Fatal("pre-cancelled Get ran its fill")
	}

	boom := errors.New("boom")
	if _, err := c.Get(context.Background(), "k", func(context.Context) (int, error) { return 0, boom }); err != boom {
		t.Fatalf("failed fill returned %v, want its error", err)
	}
	mid, stop := context.WithCancel(context.Background())
	if _, err := c.Get(mid, "k", func(ctx context.Context) (int, error) {
		stop()
		return 0, ctx.Err()
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("fill cancelled mid-flight returned %v", err)
	}
	if _, ok := c.Peek("k"); ok || len(c.Keys()) != 0 {
		t.Fatal("a failed fill left an entry")
	}

	if v, err := c.Get(context.Background(), "k", value(7, &fills)); err != nil || v != 7 {
		t.Fatalf("retry = %d, %v; want 7", v, err)
	}
	if st := c.Stats(); st.Misses != 4 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 4 misses (two failed fills, the Peek, one retry) and 1 entry", st)
	}
}

// TestWaitersOnFailedFillRetry: a waiter on a fill that fails does not
// inherit the error; it runs a fresh fill under its own live context.
func TestWaitersOnFailedFillRetry(t *testing.T) {
	c := New[int](0, nil)
	release := make(chan struct{})
	failing := func(context.Context) (int, error) {
		<-release
		return 0, errors.New("boom")
	}
	firstErr := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), "k", failing)
		firstErr <- err
	}()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })

	var fills atomic.Int32
	got := make(chan int, 1)
	go func() {
		v, err := c.Get(context.Background(), "k", value(9, &fills))
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		got <- v
	}()
	waitFor(t, func() bool { return c.Stats().Hits == 1 })
	close(release)
	if err := <-firstErr; err == nil {
		t.Error("the failing fill returned no error to its caller")
	}
	if v := <-got; v != 9 || fills.Load() != 1 {
		t.Errorf("waiter got %d after %d fills, want 9 from its own fill", v, fills.Load())
	}
}

// TestCancelledWaiterLeavesFillRunning: a waiter whose context ends
// returns ctx.Err() at once, while the fill completes for everyone else
// and is retained.
func TestCancelledWaiterLeavesFillRunning(t *testing.T) {
	c := New[int](0, nil)
	release := make(chan struct{})
	filled := make(chan int, 1)
	go func() {
		v, err := c.Get(context.Background(), "k", func(context.Context) (int, error) {
			<-release
			return 5, nil
		})
		if err != nil {
			t.Errorf("filler: %v", err)
		}
		filled <- v
	}()
	waitFor(t, func() bool { return c.Stats().Misses == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "k", func(context.Context) (int, error) {
			t.Error("a waiter ran a second fill")
			return 0, nil
		})
		waited <- err
	}()
	waitFor(t, func() bool { return c.Stats().Hits == 1 })
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}

	close(release)
	if v := <-filled; v != 5 {
		t.Fatalf("filler got %d, want 5", v)
	}
	if v, ok := c.Peek("k"); !ok || v != 5 {
		t.Errorf("fill not retained after its waiter left: %d, %v", v, ok)
	}
}

// TestBudgetEvictsLRU: retained sizes stay within the budget, the least
// recently used entry goes first, and an evicted key fills again.
func TestBudgetEvictsLRU(t *testing.T) {
	c := New(25, func(v int) int64 { return int64(v) }) // room for two 10s
	var fills atomic.Int32
	get := func(key string) {
		t.Helper()
		if _, err := c.Get(context.Background(), key, value(10, &fills)); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // a is now the most recent
	get("c") // evicts b
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("keys = %v, want [a c]", got)
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 20 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries, 20 bytes, 1 eviction", st)
	}
	get("b")
	if n := fills.Load(); n != 4 {
		t.Errorf("%d fills, want 4 (a, b, c, and b again after its eviction)", n)
	}
	if st := c.Stats(); st.Bytes > c.Budget() {
		t.Errorf("retained %d bytes over the %d budget", st.Bytes, c.Budget())
	}
}

// TestOversizeNotRetained: a value larger than the whole budget is
// returned to its caller but never kept, so each Get fills again; an
// oversize Put drops the key's earlier value.
func TestOversizeNotRetained(t *testing.T) {
	c := New(5, func(v int) int64 { return int64(v) })
	var fills atomic.Int32
	for i := 0; i < 2; i++ {
		if v, err := c.Get(context.Background(), "big", value(6, &fills)); err != nil || v != 6 {
			t.Fatalf("oversize Get = %d, %v; want 6", v, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 2 || fills.Load() != 2 {
		t.Errorf("stats = %+v after %d fills, want nothing retained and 2 fills", st, fills.Load())
	}
	c.Put("k", 3)
	c.Put("k", 9)
	if _, ok := c.Peek("k"); ok {
		t.Error("an oversize Put left the old value behind")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 0 bytes and no evictions", st)
	}
}

// TestPutRefreshesAndPeekPromotes: Put replaces a key's value in place
// (one entry, re-sized) and makes it most recent; Peek promotes too, so
// the untouched key is the one evicted.
func TestPutRefreshesAndPeekPromotes(t *testing.T) {
	c := New[string](2, nil) // unit sizes: two entries
	c.Put("a", "old")
	c.Put("b", "b")
	c.Put("a", "new") // refresh: a is now most recent
	c.Put("c", "c")   // evicts b
	if v, ok := c.Peek("a"); !ok || v != "new" {
		t.Fatalf("Peek(a) = %q, %v; want the refreshed value", v, ok)
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b survived although a was refreshed after it")
	}
	c.Peek("c")
	c.Peek("a")     // promote a over c
	c.Put("d", "d") // evicts c
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"a", "d"}) {
		t.Errorf("keys = %v, want [a d]", got)
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 2 || st.Evictions != 2 {
		t.Errorf("stats = %+v, want 2 entries, 2 units, 2 evictions", st)
	}
}

// TestUnboundedNeverEvicts: a zero budget keeps every entry.
func TestUnboundedNeverEvicts(t *testing.T) {
	c := New[int](0, nil)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprint(i), i)
	}
	if st := c.Stats(); st.Entries != 1000 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 1000 entries and no evictions", st)
	}
}

// TestStatsOnNil: a nil cache (a disabled layer) reports zeros.
func TestStatsOnNil(t *testing.T) {
	var c *Cache[int]
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil Stats = %+v, want zeros", st)
	}
}

// TestConcurrentMixedUse hammers overlapping keys from several goroutines
// through every method, for the race detector, and checks the budget and
// the counters add up afterwards.
func TestConcurrentMixedUse(t *testing.T) {
	c := New[int](8, nil)
	const workers, ops = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprint((w + i) % 16)
				switch i % 4 {
				case 0, 1:
					v, err := c.Get(context.Background(), key, func(context.Context) (int, error) { return len(key), nil })
					if err != nil || v != len(key) {
						t.Errorf("Get(%s) = %d, %v", key, v, err)
						return
					}
				case 2:
					c.Put(key, len(key))
				default:
					if v, ok := c.Peek(key); ok && v != len(key) {
						t.Errorf("Peek(%s) = %d", key, v)
						return
					}
				}
			}
			c.Keys()
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 8 || st.Bytes != int64(st.Entries) {
		t.Errorf("stats = %+v, want at most 8 unit entries", st)
	}
	if lookups := st.Hits + st.Misses; lookups != workers*ops*3/4 {
		t.Errorf("%d lookups counted, want %d (every Get and Peek)", lookups, workers*ops*3/4)
	}
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
