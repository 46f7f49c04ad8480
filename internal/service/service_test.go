package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestQueueBackpressure: admission must refuse, never block, past depth.
func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(2)
	a, b, c := &Job{ID: "a"}, &Job{ID: "b"}, &Job{ID: "c"}
	if !q.TryEnqueue(a) || !q.TryEnqueue(b) {
		t.Fatal("enqueue within depth refused")
	}
	if q.TryEnqueue(c) {
		t.Fatal("enqueue past depth accepted")
	}
	if q.Depth() != 2 || q.Cap() != 2 {
		t.Fatalf("depth/cap = %d/%d, want 2/2", q.Depth(), q.Cap())
	}
}

// TestQueueCloseDrains: Close stops intake but the backlog stays readable,
// and the channel terminates once drained.
func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(2)
	q.TryEnqueue(&Job{ID: "a"})
	q.TryEnqueue(&Job{ID: "b"})
	q.Close()
	q.Close() // idempotent
	if q.TryEnqueue(&Job{ID: "c"}) {
		t.Fatal("enqueue after Close accepted")
	}
	var got []string
	for j := range q.Chan() {
		got = append(got, j.ID)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("drained %v, want [a b] in FIFO order", got)
	}
}

// TestStoreLRUEviction: capacity 2, touching "a" must make "b" the victim.
func TestStoreLRUEviction(t *testing.T) {
	st := NewStore(2)
	st.Put("a", &RunResult{Workload: "a"})
	st.Put("b", &RunResult{Workload: "b"})
	if _, ok := st.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	st.Put("c", &RunResult{Workload: "c"})
	if _, ok := st.Get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	if _, ok := st.Get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if _, ok := st.Get("c"); !ok {
		t.Error("c missing after insert")
	}
	if st.Len() != 2 {
		t.Errorf("len = %d, want 2", st.Len())
	}
	if st.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions())
	}
}

// TestStorePutRefreshesExisting: re-putting a key must not grow the store
// or evict anything.
func TestStorePutRefreshesExisting(t *testing.T) {
	st := NewStore(2)
	st.Put("a", &RunResult{Seed: 1})
	st.Put("b", &RunResult{})
	st.Put("a", &RunResult{Seed: 2})
	if st.Len() != 2 || st.Evictions() != 0 {
		t.Fatalf("len/evictions = %d/%d, want 2/0", st.Len(), st.Evictions())
	}
	res, _ := st.Get("a")
	if res.Seed != 2 {
		t.Errorf("refresh kept stale value (seed %d)", res.Seed)
	}
}

// testDefaults are the request defaults of the parser tests below.
var testDefaults = Defaults{Accesses: 1000, Seed: 42}

// parse runs parseRunRequest over the JSON encoding of s.
func parse(s spec.Spec) (spec.Spec, string, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return spec.Spec{}, "", err
	}
	_, c, key, err := parseRunRequest(body, testDefaults)
	return c, key, err
}

// TestSpecKeyFingerprintsSizing: equal specs with different sizing must
// occupy different store keys; equal effective requests must collide.
func TestSpecKeyFingerprintsSizing(t *testing.T) {
	mk := func(acc, seed uint64) spec.Spec {
		return spec.Spec{Workload: "milc", Policy: "baseline", Accesses: acc, Seed: seed}
	}
	_, k1, err := parse(mk(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, k2, _ := parse(mk(2000, 1))
	_, k3, _ := parse(mk(1000, 2))
	_, k4, _ := parse(mk(1000, 1))
	if k1 == k2 || k1 == k3 {
		t.Errorf("sizing not fingerprinted: %q vs %q vs %q", k1, k2, k3)
	}
	if k1 != k4 {
		t.Errorf("equal requests got different keys: %q vs %q", k1, k4)
	}
}

// TestSpecOfRejectsBadRequests covers the validation branches reachable
// over the wire.
func TestSpecOfRejectsBadRequests(t *testing.T) {
	cases := []spec.Spec{
		{Workload: "nonesuch", Policy: "baseline"},
		{Workload: "milc", Policy: "nonesuch"},
		{Workload: "milc", Policy: "baseline", MixWith: "nonesuch"},
		{Workload: "milc", Policy: "slip", BinBits: 12},
		{Workload: "milc", Policy: "baseline", Tech: "7nm"},
		{Workload: "milc", Policy: "baseline", DRAM: &spec.DRAMSpec{PJPerBit: 11}},
	}
	for i, c := range cases {
		if _, _, err := parse(c); err == nil {
			t.Errorf("case %d (%+v): no error", i, c)
		}
	}
	for _, body := range []string{
		`{`,
		`{"workload":"milc"}`,
		`{"workload":"milc","policy":"slip","acesses":5}`,
		`[]`,
	} {
		if _, _, _, err := parseRunRequest([]byte(body), testDefaults); err == nil {
			t.Errorf("body %s: no error", body)
		}
	}
}

// TestSpecOfCanonicalizesAliases: the store key must be alias-blind — a
// request spelled with a policy alias or explicit defaults lands on the
// same hash as its canonical spelling.
func TestSpecOfCanonicalizesAliases(t *testing.T) {
	ca, ka, err := parse(spec.Spec{Workload: "milc", Policy: "slip-abp", BinBits: 3, UseRRIP: true})
	if err != nil {
		t.Fatal(err)
	}
	cb, kb, err := parse(spec.Spec{Workload: "milc", Policy: "slip+abp", BinBits: 3, UseRRIP: true, Cores: 1, Accesses: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("alias spelling split the key space: %q vs %q", ka, kb)
	}
	if ca.Policy != "slip+abp" || cb.Policy != "slip+abp" {
		t.Errorf("canonical policy = %q/%q, want slip+abp", ca.Policy, cb.Policy)
	}
	if !strings.HasPrefix(ka, "s1:") {
		t.Errorf("key %q is not a spec hash", ka)
	}
	if v := ca.Variant(); v != "bits3+rrip" {
		t.Errorf("variant %q, want bits3+rrip", v)
	}
	cfgOut, err := ca.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfgOut.BinBits != 3 || !cfgOut.UseRRIP || cfgOut.DisableSampling {
		t.Errorf("built config %+v does not reflect the request", cfgOut)
	}
}

// TestMixRequestWithKnobs: config knobs now compose with mix runs (the
// generalized engine simulates any spec), and the mix key differs from the
// single-core keys.
func TestMixRequestWithKnobs(t *testing.T) {
	c, key, err := parse(spec.Spec{Workload: "milc", MixWith: "sphinx3", Policy: "slip+abp", BinBits: 3})
	if err != nil {
		t.Fatalf("mix with knobs rejected: %v", err)
	}
	if c.Cores != 2 {
		t.Errorf("canonical cores = %d, want 2", c.Cores)
	}
	_, ks, _ := parse(spec.Spec{Workload: "milc", Policy: "slip+abp", BinBits: 3})
	if key == ks {
		t.Errorf("mix and single-core requests share key %q", key)
	}
}

// runRequestCorpus seeds both POST /v1/runs fuzzers.
var runRequestCorpus = []string{
	`{"workload":"milc","policy":"slip"}`,
	`{"workload":"milc","policy":"slip-abp","accesses":5000,"warmup":0,"seed":9}`,
	`{"workload":"milc","mix_with":"sphinx3","policy":"lru-pea","bin_bits":3,"use_rrip":true}`,
	`{"workload":"soplex","policy":"slip+abp","sampling":8,"tech":"22nm","topology":"h-tree","cores":3}`,
	`{"workload":"milc","policy":"baseline","dram":{"latency_cycles":100,"pj_per_bit":10},"timeout_ms":5}`,
	`{"workload":"milc","policy":"slip","disable_sampling":true,"l2_bytes":131072}`,
	`{"workload":"milc","policy":"slip","acesses":5}`,
	`{"workload":"milc","policy":"slip"} trailing`,
	`{`, `[]`, `null`, ``,
	// warmup + accesses wraps uint64 to 4 unless sizing is bounded.
	`{"workload":"milc","policy":"slip","accesses":18446744073709551615,"warmup":5}`,
}

// FuzzRunRequest drives arbitrary POST bodies through slipd's parser: no
// input may panic it, an accepted body's access total
// (cores x (warmup + accesses)) may not wrap, and its canonical spec,
// posted back, must parse to the same key.
func FuzzRunRequest(f *testing.F) {
	for _, body := range runRequestCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		_, c, key, err := parseRunRequest(body, testDefaults)
		if err != nil {
			return
		}
		perCore, carry := bits.Add64(*c.Warmup, c.Accesses, 0)
		if hi, _ := bits.Mul64(uint64(c.Cores), perCore); carry != 0 || hi != 0 {
			t.Fatalf("body %q accepted with an access total that wraps: %d cores x (%d + %d)",
				body, c.Cores, *c.Warmup, c.Accesses)
		}
		canon, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("canonical spec of %q does not encode: %v", body, err)
		}
		_, _, again, err := parseRunRequest(canon, testDefaults)
		if err != nil || again != key {
			t.Fatalf("body %q keyed %s; its canonical spec %s keyed %s, %v", body, key, canon, again, err)
		}
	})
}

// FuzzPostRun drives arbitrary bodies through slipd's POST /v1/runs
// handler on a server that is never started, so nothing simulates and
// admitted jobs stay queued until the queue answers 429. The handler may
// answer only 200, 202, 400, 413 or 429, never a 500 or a panic. A body
// over maxRunBody must answer 413; below it, the handler admits a body
// exactly when the parser accepts it, under the parser's key.
func FuzzPostRun(f *testing.F) {
	for _, body := range runRequestCorpus {
		f.Add([]byte(body))
	}
	f.Add(append(bytes.Repeat([]byte(" "), maxRunBody), runRequestCorpus[0]...))
	srv := New(Config{QueueDepth: 4, Defaults: testDefaults})
	f.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		code := rec.Code
		switch code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST of %d bytes answered %d: %s", len(body), code, rec.Body)
		}
		if len(body) > maxRunBody {
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("POST of %d bytes answered %d, want 413", len(body), code)
			}
			return
		}
		_, _, key, err := parseRunRequest(body, testDefaults)
		if admitted := code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge; admitted != (err == nil) {
			t.Fatalf("body %q answered %d, parser error %v", body, code, err)
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			return
		}
		var v JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("body %q: %d answer does not decode: %v", body, code, err)
		}
		if v.Key != key {
			t.Fatalf("body %q answered key %s, parser keys it %s", body, v.Key, key)
		}
	})
}
