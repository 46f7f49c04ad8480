package castore

import (
	"bytes"
	"fmt"
	"testing"
)

// filled opens a store over a fresh directory and writes n entries with
// 900-byte payloads, about the size of one slipd result. It returns the
// store, its directory and the keys written.
func filled(b *testing.B, n int) (*Store, string, []string) {
	b.Helper()
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 900)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("s1:%064x", i)
		if err := s.Put(keys[i], payload); err != nil {
			b.Fatal(err)
		}
	}
	return s, dir, keys
}

// BenchmarkPut times one Put into a store holding n resident entries.
// Each iteration rewrites one of them, so the store keeps n throughout.
func BenchmarkPut(b *testing.B) {
	for _, n := range []int{256, 8192} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			s, _, keys := filled(b, n)
			payload := bytes.Repeat([]byte("y"), 900)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(keys[i%n], payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen times reopening a store of 8,192 entries.
func BenchmarkOpen(b *testing.B) {
	_, dir, keys := filled(b, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != len(keys) {
			b.Fatalf("reopened %d of %d entries", s.Len(), len(keys))
		}
	}
}
