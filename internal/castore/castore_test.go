package castore

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// open is the test helper for a fresh store over dir.
func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%q) = %v", dir, err)
	}
	return s
}

// entryPath is the file that holds key's entry.
func (s *Store) entryPath(key string) string { return s.objectPath(objectName(key)) }

// entryFiles lists the entry files under dir's object tree.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, objectsDir, "*", "*"+entryExt))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPutGetRoundTrip: payloads come back byte-identical, hits/misses
// count, and keys with filesystem-hostile characters work.
func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	keys := []string{"s1:" + string(bytes.Repeat([]byte("ab"), 32)), "weird/key:with*chars", "plain"}
	for i, k := range keys {
		payload := []byte(fmt.Sprintf(`{"n":%d,"k":%q}`, i, k))
		if err := s.Put(k, payload); err != nil {
			t.Fatalf("Put(%q) = %v", k, err)
		}
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, got, ok, payload)
		}
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) reported a hit")
	}
	st := s.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Errors != 0 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 hits / 1 miss / 0 errors / 3 entries", st)
	}
}

// TestSurvivesReopen: an entry is durable once Put returns; a second
// store over the same directory serves it with no shutdown step between.
func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	payload := []byte(`{"result":"durable"}`)
	if err := s.Put("s1:deadbeef", payload); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{})
	got, ok := s2.Get("s1:deadbeef")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("after reopen Get = %q, %v; want the original payload", got, ok)
	}
}

// TestOverwriteReplacesPayload: a second Put under the same key wins and
// byte accounting follows the new size.
func TestOverwriteReplacesPayload(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put("k", bytes.Repeat([]byte("x"), 1000)); err != nil {
		t.Fatal(err)
	}
	small := []byte("small")
	if err := s.Put("k", small); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || !bytes.Equal(got, small) {
		t.Fatalf("Get after overwrite = %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if b := s.Bytes(); b > 300 {
		t.Fatalf("Bytes = %d, want the small entry's footprint", b)
	}
}

// corruptEntry flips one payload byte of key's entry file on disk.
func corruptEntry(t *testing.T, s *Store, key string) {
	t.Helper()
	path := s.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptEntryDetected: a flipped payload byte fails the checksum,
// counts as an error, reads as a miss, and the entry is dropped from
// disk so later reads miss cleanly.
func TestCorruptEntryDetected(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, s, "k")
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	st := s.Stats()
	if st.Errors != 1 || st.Entries != 0 {
		t.Fatalf("stats after corruption = %+v, want 1 error / 0 entries", st)
	}
	if _, err := os.Stat(s.entryPath("k")); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry file not deleted: %v", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("dropped entry resurrected")
	}
}

// TestTruncatedEntryDetected: chopping the payload short of the header's
// declared length is detected (error + miss), covering torn writes that
// bypassed the tmp+rename protocol (e.g. filesystem corruption).
func TestTruncatedEntryDetected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put("k", bytes.Repeat([]byte("p"), 512)); err != nil {
		t.Fatal(err)
	}
	path := s.entryPath("k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	// The LRU still counts the old size; the Get's length check catches it.
	if _, ok := s.Get("k"); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Fatalf("stats after truncation = %+v, want 1 error", st)
	}
}

// TestWrongKeyEntryDetected: an entry renamed over another key's path
// fails the embedded-key check.
func TestWrongKeyEntryDetected(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put("a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	// Copy b's (valid, checksummed) entry over a's path: checksum passes,
	// embedded key must not.
	raw, err := os.ReadFile(s.entryPath("b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.entryPath("a"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("entry with wrong embedded key served as a hit")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 error", st)
	}
}

// TestPartialTmpIgnoredOnReopen: files left in tmp/ by an interrupted
// write are removed on Open and never become entries.
func TestPartialTmpIgnoredOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(dir, tmpDir, "put-123.tmp")
	if err := os.WriteFile(partial, []byte("half an ent"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{})
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Fatalf("partial tmp file survived reopen: %v", err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len after reopen = %d, want 1 (the real entry only)", s2.Len())
	}
	if _, ok := s2.Get("k"); !ok {
		t.Fatal("real entry lost across reopen")
	}
}

// TestIndexRebuiltFromScan: the object tree is the only index. Open
// stats entries but reads none, so a headerless entry is indexed and
// counted as an error by the first Get that reads it, and an index.json
// left in the directory, valid or corrupt, is neither read nor written.
func TestIndexRebuiltFromScan(t *testing.T) {
	for name, stray := range map[string]string{
		"missing": "",
		"corrupt": "{not json",
		"valid":   `{"v":1,"entries":[{"key":"k0","size":1}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{})
			for i := 0; i < 5; i++ {
				if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// One entry loses its header; only a read can tell.
			if err := os.WriteFile(s.entryPath("k3"), []byte("garbage with no newline"), 0o644); err != nil {
				t.Fatal(err)
			}
			index := filepath.Join(dir, "index.json")
			if stray != "" {
				if err := os.WriteFile(index, []byte(stray), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s2 := open(t, dir, Options{})
			if st := s2.Stats(); st.Entries != 5 || st.Errors != 0 {
				t.Fatalf("after Open stats = %+v, want 5 entries / 0 errors", st)
			}
			for _, k := range []string{"k0", "k1", "k2", "k4"} {
				if got, ok := s2.Get(k); !ok || !bytes.Equal(got, []byte("payload-"+k[1:])) {
					t.Fatalf("after reopen Get(%q) = %q, %v", k, got, ok)
				}
			}
			if _, ok := s2.Get("k3"); ok {
				t.Fatal("headerless entry served as a hit")
			}
			if st := s2.Stats(); st.Entries != 4 || st.Errors != 1 {
				t.Fatalf("after Get(k3) stats = %+v, want 4 entries / 1 error", st)
			}
			if err := s2.Put("k5", []byte("payload-5")); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(index)
			if stray == "" && !os.IsNotExist(err) {
				t.Fatalf("index.json written: %v", err)
			}
			if stray != "" && string(raw) != stray {
				t.Fatalf("stray index.json rewritten to %q", raw)
			}
		})
	}
}

// TestStoreLayout: after N Puts the directory holds exactly N entry
// files, an empty tmp/ and nothing else.
func TestStoreLayout(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	const n = 12
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := s.Put(k, []byte("payload-"+k)); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(k); !ok {
			t.Fatalf("Get(%q) missed", k)
		}
	}
	var other []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fan := d.IsDir() && filepath.Dir(rel) == objectsDir
		entry := !d.IsDir() && filepath.Ext(rel) == entryExt && filepath.Dir(filepath.Dir(rel)) == objectsDir
		if rel != "." && rel != objectsDir && rel != tmpDir && !fan && !entry {
			other = append(other, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != 0 {
		t.Fatalf("store holds more than its entries: %v", other)
	}
	if got := len(entryFiles(t, dir)); got != n {
		t.Fatalf("%d entry files after %d Puts", got, n)
	}
	if tmps, err := os.ReadDir(filepath.Join(dir, tmpDir)); err != nil || len(tmps) != 0 {
		t.Fatalf("tmp/ = %v, %v; want empty", tmps, err)
	}
}

// TestRecencySurvivesReopen: a Get refreshes its entry's mtime, so after
// a reopen with no shutdown step (as after kill -9) the promoted entry
// outlives the least recently used one.
func TestRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 200)
	// Each entry is ~200 payload + ~130 header bytes; budget for ~3.
	s := open(t, dir, Options{MaxBytes: 1100})
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct write times, oldest first, whatever the clock's grain.
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.entryPath(k), at, at); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing before the reopen")
	}

	s2 := open(t, dir, Options{MaxBytes: 1100})
	if err := s2.Put("k3", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("k1"); ok {
		t.Fatal("least recently used k1 survived the eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("%q evicted; the Get before the reopen did not promote k0", k)
		}
	}
}

// TestByteBudgetEvictsLRU: the least recently used entries go first and
// the budget holds across Puts and reopens.
func TestByteBudgetEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 200)
	// Each entry is ~200 payload + ~130 header bytes; budget for ~3.
	s := open(t, dir, Options{MaxBytes: 1100})
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 is the LRU, then insert a fourth entry.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction test")
	}
	if err := s.Put("k3", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("LRU entry k1 survived over-budget Put")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently used entry %q evicted", k)
		}
	}
	if st := s.Stats(); st.Evictions == 0 || st.Bytes > 1100 {
		t.Fatalf("stats = %+v, want evictions > 0 and bytes within budget", st)
	}

	// The budget also applies at open time if the directory outgrew it.
	s2 := open(t, dir, Options{MaxBytes: 400})
	if s2.Bytes() > 400 {
		t.Fatalf("reopened store over budget: %d bytes", s2.Bytes())
	}
	if s2.Len() == 0 {
		t.Fatal("reopen evicted everything despite budget for one entry")
	}
}

// TestOversizePutKeepsStore: an entry larger than the whole budget is
// refused before it is written, so it evicts nothing.
func TestOversizePutKeepsStore(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxBytes: 1100})
	payload := bytes.Repeat([]byte("x"), 200)
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("huge", bytes.Repeat([]byte("x"), 5000)); err != nil {
		t.Fatalf("oversize Put = %v", err)
	}
	if st := s.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 3 entries / 0 evictions", st)
	}
	if _, err := os.Stat(s.entryPath("huge")); !os.IsNotExist(err) {
		t.Fatalf("oversize entry written: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost to an oversize Put", i)
		}
	}
}

// TestUnwritableStoreFailsSoft: with tmp/ replaced by a regular file no
// entry can be staged (unlike a chmod, this stops root too). Put returns
// and counts the error, nothing reaches objects/ for its key, and the
// entries written before still read back verified.
func TestUnwritableStoreFailsSoft(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for _, k := range []string{"k0", "k1"} {
		if err := s.Put(k, []byte("payload-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	tmp := filepath.Join(dir, tmpDir)
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", []byte("payload-k2")); err == nil {
		t.Fatal("Put into an unwritable store reported success")
	}
	if st := s.Stats(); st.Errors != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 error / 2 entries", st)
	}
	if _, err := os.Stat(s.entryPath("k2")); !os.IsNotExist(err) {
		t.Fatalf("failed Put left an entry: %v", err)
	}
	if files := entryFiles(t, dir); len(files) != 2 {
		t.Fatalf("objects/ holds %v, want the 2 earlier entries", files)
	}
	for _, k := range []string{"k0", "k1"} {
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, []byte("payload-"+k)) {
			t.Fatalf("Get(%q) = %q, %v after a failed Put", k, got, ok)
		}
	}
}

// TestFsyncOptionWrites: the fsync path must at minimum produce the same
// observable behavior (this is a smoke for the extra syscalls, not a
// power-loss test).
func TestFsyncOptionWrites(t *testing.T) {
	s := open(t, t.TempDir(), Options{Fsync: true})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put with fsync = %v", err)
	}
	if got, ok := s.Get("k"); !ok || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

// TestConcurrentAccess hammers Put/Get/Stats from many goroutines; run
// under -race in CI.
func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxBytes: 64 << 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("k%d", (g*40+i)%23)
				if err := s.Put(k, []byte(fmt.Sprintf("payload-%s", k))); err != nil {
					t.Errorf("Put(%q) = %v", k, err)
					return
				}
				if got, ok := s.Get(k); ok && !bytes.Equal(got, []byte("payload-"+k)) {
					t.Errorf("Get(%q) = %q", k, got)
					return
				}
				_ = s.Stats()
			}
		}(g)
	}
	wg.Wait()
}
