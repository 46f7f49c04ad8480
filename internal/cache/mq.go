package cache

// MovementQueue models the fully-associative queue of Section 4.3 that
// holds lines in flight between ways so lookups and invalidations stay
// correct while a movement's read and write are in progress. Functionally
// the simulator completes movements instantly; the queue tracks occupancy
// so that port contention (a full queue stalling further movements) and the
// per-lookup energy are accounted.
type MovementQueue struct {
	capacity int
	// drainAge is how many subsequent level accesses a movement occupies an
	// entry for (the read+write service time expressed in accesses).
	drainAge uint64
	// entries holds the access-counter values at which entries free up,
	// oldest first, in fixed storage of capacity entries.
	entries []uint64

	lookups uint64
	stalls  uint64
	peak    int
}

// NewMovementQueue builds a queue with the given capacity; each movement
// occupies its entry for drainAge subsequent accesses.
func NewMovementQueue(capacity int, drainAge uint64) *MovementQueue {
	if capacity < 1 {
		panic("cache: movement queue capacity must be positive")
	}
	if drainAge < 1 {
		drainAge = 1
	}
	return &MovementQueue{capacity: capacity, drainAge: drainAge,
		entries: make([]uint64, 0, capacity)}
}

// drain releases entries that have completed by access-time now.
func (q *MovementQueue) drain(now uint64) {
	kept := q.entries[:0]
	for _, e := range q.entries {
		if e > now {
			kept = append(kept, e)
		}
	}
	q.entries = kept
}

// Lookup records a probe of the queue (every cache access while movements
// are possible must check it) and returns its energy cost in picojoules.
func (q *MovementQueue) Lookup(now uint64) float64 {
	q.lookups++
	q.drain(now)
	return lookupPJ
}

// lookupPJ is the synthesized 0.3 pJ per-lookup cost from Section 5.
const lookupPJ = 0.3

// Enqueue registers a movement beginning at access-time now. It reports
// whether the queue was full — a stall, during which the cache port blocks
// until an entry drains.
func (q *MovementQueue) Enqueue(now uint64) (stalled bool) {
	q.drain(now)
	if len(q.entries) >= q.capacity {
		q.stalls++
		stalled = true
		// The movement still proceeds once the oldest entry drains; model
		// that by dropping the oldest, in place.
		n := copy(q.entries, q.entries[1:])
		q.entries = q.entries[:n]
	}
	q.entries = append(q.entries, now+q.drainAge)
	if len(q.entries) > q.peak {
		q.peak = len(q.entries)
	}
	return stalled
}

// Occupancy returns the live entry count at access-time now.
func (q *MovementQueue) Occupancy(now uint64) int {
	q.drain(now)
	return len(q.entries)
}

// Lookups returns the number of probes so far.
func (q *MovementQueue) Lookups() uint64 { return q.lookups }

// Stalls returns how many movements found the queue full.
func (q *MovementQueue) Stalls() uint64 { return q.stalls }

// Peak returns the maximum occupancy observed.
func (q *MovementQueue) Peak() int { return q.peak }

// MQBank splits the movement queue into NumGroups independent lanes, one
// per line-address group, each driven by its own group's access counter
// (Level.T). Accesses to different groups never share a lane, so a lane's
// occupancy and stalls depend only on its own group's stream: under set
// sampling a sampled group's lane behaves exactly as in the full run.
// Aggregate views (Lookups/Stalls/Peak) sum or max over the lanes, so
// level-wide reporting reads the same as the single-queue model.
type MQBank struct {
	lanes [NumGroups]*MovementQueue
}

// NewMQBank builds a bank of NumGroups movement queues, each with the
// given capacity and drain age.
func NewMQBank(capacity int, drainAge uint64) *MQBank {
	b := &MQBank{}
	for g := range b.lanes {
		b.lanes[g] = NewMovementQueue(capacity, drainAge)
	}
	return b
}

// Lookup probes group g's lane at its access-time now and returns the
// probe energy in picojoules.
func (b *MQBank) Lookup(g int, now uint64) float64 { return b.lanes[g].Lookup(now) }

// Enqueue registers a movement in group g's lane at its access-time now,
// reporting whether that lane stalled.
func (b *MQBank) Enqueue(g int, now uint64) (stalled bool) { return b.lanes[g].Enqueue(now) }

// Occupancy returns group g's live entry count at its access-time now.
func (b *MQBank) Occupancy(g int, now uint64) int { return b.lanes[g].Occupancy(now) }

// Lookups returns the total probes across all lanes.
func (b *MQBank) Lookups() uint64 {
	var n uint64
	for _, q := range b.lanes {
		n += q.lookups
	}
	return n
}

// Stalls returns the total stalled movements across all lanes.
func (b *MQBank) Stalls() uint64 {
	var n uint64
	for _, q := range b.lanes {
		n += q.stalls
	}
	return n
}

// Peak returns the maximum occupancy observed by any lane.
func (b *MQBank) Peak() int {
	p := 0
	for _, q := range b.lanes {
		if q.peak > p {
			p = q.peak
		}
	}
	return p
}
