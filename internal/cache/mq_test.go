package cache

import "testing"

func TestMQLookupEnergyAndCount(t *testing.T) {
	q := NewMovementQueue(16, 4)
	if pj := q.Lookup(0); pj != 0.3 {
		t.Errorf("lookup energy = %v, want 0.3", pj)
	}
	q.Lookup(1)
	if q.Lookups() != 2 {
		t.Errorf("Lookups = %d", q.Lookups())
	}
}

func TestMQOccupancyAndDrain(t *testing.T) {
	q := NewMovementQueue(16, 4)
	q.Enqueue(10)
	q.Enqueue(11)
	if got := q.Occupancy(12); got != 2 {
		t.Errorf("occupancy = %d, want 2", got)
	}
	// Both entries drain after their read+write windows pass.
	if got := q.Occupancy(16); got != 0 {
		t.Errorf("occupancy after drain = %d, want 0", got)
	}
}

func TestMQStallsWhenFull(t *testing.T) {
	q := NewMovementQueue(2, 100)
	if q.Enqueue(1) || q.Enqueue(1) {
		t.Fatal("unexpected stall while filling")
	}
	if !q.Enqueue(1) {
		t.Error("full queue did not stall")
	}
	if q.Stalls() != 1 {
		t.Errorf("Stalls = %d", q.Stalls())
	}
	if q.Peak() < 2 {
		t.Errorf("Peak = %d", q.Peak())
	}
}

func TestMQValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewMovementQueue(0, 1)
}

func TestMQZeroDrainAgeClamped(t *testing.T) {
	q := NewMovementQueue(1, 0)
	q.Enqueue(5)
	if q.Occupancy(5) != 1 {
		t.Error("entry drained instantly")
	}
	if q.Occupancy(7) != 0 {
		t.Error("entry never drained")
	}
}

// TestMQFixedStorage checks that a queue never allocates once built —
// not while reaching a new peak, nor when a stall drops the oldest
// entry — and that a clone keeps the same entries and capacity.
func TestMQFixedStorage(t *testing.T) {
	q := NewMovementQueue(4, 10)
	now := uint64(0)
	if avg := testing.AllocsPerRun(100, func() {
		now++
		q.Enqueue(now)
		q.Enqueue(now)
	}); avg != 0 {
		t.Errorf("Enqueue allocates %.1f times per call pair, want 0", avg)
	}
	if q.Stalls() == 0 || q.Peak() != 4 {
		t.Fatalf("stalls = %d, peak = %d: the queue never filled", q.Stalls(), q.Peak())
	}
	// The stall dropped the oldest entries: the four newest remain.
	want := []uint64{now + 9, now + 9, now + 10, now + 10}
	for i, e := range q.entries {
		if e != want[i] {
			t.Fatalf("entries = %v, want %v", q.entries, want)
		}
	}
	c := q.Clone()
	c.Enqueue(now)
	if q.Stalls() == c.Stalls() || q.entries[3] != now+10 {
		t.Error("clone shares state with the original")
	}
	// A clone of a part-full queue keeps the full fixed storage.
	q.Occupancy(now + 9)
	if c := q.Clone(); len(c.entries) != 2 || cap(c.entries) != 4 {
		t.Errorf("clone entries len %d cap %d, want 2/4", len(c.entries), cap(c.entries))
	}
}
