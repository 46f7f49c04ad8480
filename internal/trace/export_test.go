package trace

// ChunkBytes is the capacity of one Buffer chunk.
const ChunkBytes = chunkBytes

// BufferCap is the capacity of b's chunks together, for tests that check
// a buffer retains no more than Size reports.
func BufferCap(b *Buffer) int {
	n := 0
	for _, c := range b.chunks {
		n += cap(c)
	}
	return n
}

// EncodedBytes is the length of b's encoded records, its chunks' lengths
// together.
func EncodedBytes(b *Buffer) int {
	n := 0
	for _, c := range b.chunks {
		n += len(c)
	}
	return n
}
