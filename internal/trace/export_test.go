package trace

// BufferCap is the capacity of b's backing slice, for tests that check
// a buffer retains no more than Size reports.
func BufferCap(b *Buffer) int { return cap(b.data) }
