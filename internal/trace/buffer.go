package trace

import (
	"encoding/binary"

	"repro/internal/mem"
)

// chunkBytes is the capacity of each of a Buffer's chunks.
const chunkBytes = 64 << 10

// maxRecordBytes bounds one encoded record: two varints.
const maxRecordBytes = 2 * binary.MaxVarintLen64

// Buffer is a trace materialized in memory: the record format of the disk
// codec (delta/zigzag varint, ~2-4 bytes per access) without the magic
// header, held in fixed 64 KiB chunks that no record straddles. A buffer
// is written once by Record and immutable afterwards, so any number of
// Replay cursors — across goroutines — can decode it concurrently without
// coordination. It is the storage unit of the experiment engine's trace
// cache: generate a workload once, replay it for every policy.
type Buffer struct {
	chunks [][]byte
	n      uint64
}

// Record drains up to max accesses from src into a new buffer. Generators
// are unbounded, so max is the recording budget; a source that exhausts
// earlier yields a shorter buffer (Len reports the actual count). It
// allocates each chunk once, when the last one cannot take another
// record, and copies only the last chunk, down to its length, so it
// allocates within one chunk of what it keeps.
func Record(src Source, max uint64) *Buffer {
	b := &Buffer{}
	var prev uint64
	var batch [512]Access
	var cur []byte // the chunk being filled; chunks holds the full ones
	for b.n < max {
		want := min(max-b.n, uint64(len(batch)))
		k := src.NextBatch(batch[:want])
		for _, a := range batch[:k] {
			if cap(cur)-len(cur) < maxRecordBytes {
				if cur != nil {
					b.chunks = append(b.chunks, cur)
				}
				cur = make([]byte, 0, chunkBytes)
			}
			cur = appendRecord(cur, prev, a)
			prev = uint64(a.Addr)
		}
		b.n += uint64(k)
		if k < int(want) {
			break
		}
	}
	if cur != nil {
		// Keep exactly the bytes Size charges, not the chunk's empty tail.
		last := make([]byte, len(cur))
		copy(last, cur)
		b.chunks = append(b.chunks, last)
	}
	return b
}

// Len returns the number of accesses recorded.
func (b *Buffer) Len() uint64 { return b.n }

// Size returns the bytes the buffer retains: what a byte-budgeted cache
// charges for keeping it. That is the encoded records plus, at the end of
// each full chunk, the few bytes too short for another record.
func (b *Buffer) Size() int {
	if len(b.chunks) == 0 {
		return 0
	}
	return (len(b.chunks)-1)*chunkBytes + len(b.chunks[len(b.chunks)-1])
}

// Replay returns a fresh cursor over the buffer from the first access.
// Each cursor has independent position state; the underlying bytes are
// shared and never copied.
func (b *Buffer) Replay() *Replay { return &Replay{chunks: b.chunks} }

// Replay decodes a Buffer sequentially, one chunk after another. Its
// NextBatch is a tight varint loop with no interface dispatch per access.
type Replay struct {
	chunks [][]byte // the chunks after data
	data   []byte   // the chunk being decoded
	pos    int
	prev   uint64
}

// NextBatch implements Source.
func (r *Replay) NextBatch(dst []Access) int {
	data, pos, prev := r.data, r.pos, r.prev
	k := 0
	for k < len(dst) {
		if pos == len(data) {
			if len(r.chunks) == 0 {
				break
			}
			data, pos = r.chunks[0], 0
			r.chunks = r.chunks[1:]
			continue
		}
		du, w := binary.Uvarint(data[pos:])
		if w <= 0 {
			break // unreachable: the buffer encoded itself
		}
		pos += w
		meta, w := binary.Uvarint(data[pos:])
		if w <= 0 {
			break
		}
		pos += w
		prev += uint64(unzigzag(du))
		dst[k] = Access{
			Addr:  mem.Addr(prev),
			Store: meta&1 == 1,
			Gap:   uint32(meta >> 1),
		}
		k++
	}
	r.data, r.pos, r.prev = data, pos, prev
	return k
}
