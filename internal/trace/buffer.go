package trace

import (
	"encoding/binary"

	"repro/internal/mem"
)

// Buffer is a trace materialized in memory: the record format of the disk
// codec (delta/zigzag varint, ~2-4 bytes per access) without the magic
// header, held in one contiguous byte slice. A buffer is written once by
// Record and immutable afterwards, so any number of Replay cursors — across
// goroutines — can decode it concurrently without coordination. It is the
// storage unit of the experiment engine's trace cache: generate a workload
// once, replay it for every policy.
type Buffer struct {
	data []byte
	n    uint64
}

// Record drains up to max accesses from src into a new buffer. Generators
// are unbounded, so max is the recording budget; a source that exhausts
// earlier yields a shorter buffer (Len reports the actual count).
func Record(src Source, max uint64) *Buffer {
	b := &Buffer{}
	var prev uint64
	var chunk [512]Access
	for b.n < max {
		want := min(max-b.n, uint64(len(chunk)))
		k := src.NextBatch(chunk[:want])
		for _, a := range chunk[:k] {
			b.data = appendRecord(b.data, prev, a)
			prev = uint64(a.Addr)
		}
		b.n += uint64(k)
		if k < int(want) {
			break
		}
	}
	// Keep exactly the bytes Size charges, not append's growth slack.
	data := make([]byte, len(b.data))
	copy(data, b.data)
	b.data = data
	return b
}

// Len returns the number of accesses recorded.
func (b *Buffer) Len() uint64 { return b.n }

// Size returns the encoded size in bytes (what a byte-budgeted cache
// charges for retaining the buffer).
func (b *Buffer) Size() int { return len(b.data) }

// Replay returns a fresh cursor over the buffer from the first access.
// Each cursor has independent position state; the underlying bytes are
// shared and never copied.
func (b *Buffer) Replay() *Replay { return &Replay{data: b.data} }

// Replay decodes a Buffer sequentially. Its NextBatch is a tight varint
// loop with no interface dispatch per access.
type Replay struct {
	data []byte
	pos  int
	prev uint64
}

// NextBatch implements Source.
func (r *Replay) NextBatch(dst []Access) int {
	data, pos, prev := r.data, r.pos, r.prev
	k := 0
	for k < len(dst) && pos < len(data) {
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
	r.pos, r.prev = pos, prev
	return k
}
