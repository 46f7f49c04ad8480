package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Trace files are a compact binary stream:
//
//	magic "SLT1" | N records
//	record: varint(addrDelta zigzag) | varint(gap<<1 | store)
//
// Delta-encoding addresses keeps sequential traces around two bytes per
// access. The format is consumed by cmd/tracegen and the replay path.

var traceMagic = [4]byte{'S', 'L', 'T', '1'}

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// Writer encodes accesses to an io.Writer.
type Writer struct {
	w    *bufio.Writer
	prev uint64
	n    uint64
}

// NewWriter starts a trace stream on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	return &Writer{w: bw}, nil
}

// zigzag encodes a signed delta as unsigned.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendRecord appends a's record to b, delta-encoding its address
// against prev, the previous record's address. Writer and Record both
// encode through it, so the disk and in-memory formats cannot drift apart.
func appendRecord(b []byte, prev uint64, a Access) []byte {
	b = binary.AppendUvarint(b, zigzag(int64(uint64(a.Addr)-prev)))
	meta := uint64(a.Gap) << 1
	if a.Store {
		meta |= 1
	}
	return binary.AppendUvarint(b, meta)
}

// Write appends one access.
func (w *Writer) Write(a Access) error {
	var rec [2 * binary.MaxVarintLen64]byte
	if _, err := w.w.Write(appendRecord(rec[:0], w.prev, a)); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	w.prev = uint64(a.Addr)
	w.n++
	return nil
}

// Count returns the number of accesses written so far.
func (w *Writer) Count() uint64 { return w.n }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes a trace stream and implements Source.
type Reader struct {
	r    *bufio.Reader
	prev uint64
	err  error
}

// NewReader opens a trace stream, validating the magic.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, ErrBadTrace
	}
	return &Reader{r: br}, nil
}

// NextBatch implements Source, decoding straight into dst. The stream ends
// at EOF or at the first malformed record; Err tells the two apart.
func (r *Reader) NextBatch(dst []Access) int {
	if r.err != nil {
		return 0
	}
	for i := range dst {
		du, err := binary.ReadUvarint(r.r)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				r.err = err
			}
			return i
		}
		meta, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = ErrBadTrace
			return i
		}
		r.prev += uint64(unzigzag(du))
		dst[i] = Access{
			Addr:  mem.Addr(r.prev),
			Store: meta&1 == 1,
			Gap:   uint32(meta >> 1),
		}
	}
	return len(dst)
}

// Err returns the first decoding error, or nil on clean EOF.
func (r *Reader) Err() error { return r.err }
