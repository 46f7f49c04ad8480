package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// fakeBackend is a minimal slipd stand-in: it accepts runs, completes them
// instantly, serves stored results, and lets tests flip readiness.
type fakeBackend struct {
	name string
	ts   *httptest.Server

	ready atomic.Int32 // readyz status code

	mu      sync.Mutex
	posts   int
	jobs    map[string]string // id -> body it was created with
	results map[string]string // key -> result JSON
	nextID  int
}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	t.Helper()
	b := &fakeBackend{name: name, jobs: make(map[string]string), results: make(map[string]string)}
	b.ready.Store(http.StatusOK)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(int(b.ready.Load()))
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		b.mu.Lock()
		b.posts++
		b.nextID++
		id := fmt.Sprintf("%s-%d", b.name, b.nextID)
		b.jobs[id] = string(body)
		b.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued","key":"k"}`, id)
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		b.mu.Lock()
		_, ok := b.jobs[id]
		b.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"no job"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"state":"completed","key":"k","result":{"workload":"fake"}}`, id)
	})
	mux.HandleFunc("GET /v1/results/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		b.mu.Lock()
		res, ok := b.results[key]
		b.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"no result"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, res)
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

func (b *fakeBackend) postCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.posts
}

// testGateway builds a started gateway over the fakes with fast health
// checking.
func testGateway(t *testing.T, cfg Config, fakes ...*fakeBackend) (*Gateway, *httptest.Server, []string) {
	t.Helper()
	var addrs []string
	for _, f := range fakes {
		addrs = append(addrs, f.ts.URL)
	}
	cfg.Backends = addrs
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	if cfg.HealthTimeout == 0 {
		cfg.HealthTimeout = 200 * time.Millisecond
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Shutdown()
	})
	return g, ts, addrs
}

// keyFor mirrors the gateway's key derivation for test-side placement
// planning.
func keyFor(t *testing.T, g *Gateway, body string) string {
	t.Helper()
	_, _, key, err := service.ParseRunRequest([]byte(body), g.cfg.Defaults)
	if err != nil {
		t.Fatalf("ParseRunRequest(%s) = %v", body, err)
	}
	return key
}

// postVia submits one run body through the gateway.
func postVia(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, raw
}

// waitFor polls a condition with a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPostAffinity: the same spec body always lands on the same backend
// (the rendezvous home of its canonical hash) while membership is stable,
// and the gateway stamps both the backend and the derived key on the
// response.
func TestPostAffinity(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2")}
	g, ts, addrs := testGateway(t, Config{}, fakes...)

	body := `{"workload":"milc","policy":"slip","seed":7}`
	wantHome := Owner(keyFor(t, g, body), addrs)

	var served []string
	for i := 0; i < 5; i++ {
		resp, raw := postVia(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d = %d (%s)", i, resp.StatusCode, raw)
		}
		served = append(served, resp.Header.Get(backendHeader))
		if got := resp.Header.Get(keyHeader); !strings.HasPrefix(got, "s1:") {
			t.Fatalf("key header = %q, want an s1: hash", got)
		}
	}
	for i, s := range served {
		if s != wantHome {
			t.Fatalf("POST %d served by %s, want stable home %s (all: %v)", i, s, wantHome, served)
		}
	}

	// Exactly one backend saw traffic.
	hot := 0
	for _, f := range fakes {
		if f.postCount() > 0 {
			hot++
			if f.ts.URL != wantHome {
				t.Fatalf("traffic landed on %s, want %s", f.ts.URL, wantHome)
			}
		}
	}
	if hot != 1 {
		t.Fatalf("%d backends saw traffic, want 1", hot)
	}

	// Distinct specs spread: over several keys at least two backends serve.
	for i := 0; i < 8; i++ {
		postVia(t, ts, fmt.Sprintf(`{"workload":"milc","policy":"slip","seed":%d}`, 100+i))
	}
	hot = 0
	for _, f := range fakes {
		if f.postCount() > 0 {
			hot++
		}
	}
	if hot < 2 {
		t.Fatalf("8 distinct specs all hashed to one backend; sharding is not spreading")
	}
}

// TestGetRunFollowsRoute: a job is polled on the backend that created it,
// and an id the route table never saw is found by the scan fallback.
func TestGetRunFollowsRoute(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, "b0"), newFakeBackend(t, "b1")}
	_, ts, _ := testGateway(t, Config{}, fakes...)

	body := `{"workload":"milc","policy":"slip","seed":1}`
	resp, raw := postVia(t, ts, body)
	home := resp.Header.Get(backendHeader)
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &v); err != nil || v.ID == "" {
		t.Fatalf("POST body %s: %v", raw, err)
	}

	get, err := http.Get(ts.URL + "/v1/runs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK || !bytes.Contains(got, []byte(`"completed"`)) {
		t.Fatalf("GET run = %d (%s)", get.StatusCode, got)
	}
	if served := get.Header.Get(backendHeader); served != home {
		t.Fatalf("GET served by %s, want the job's home %s", served, home)
	}

	// Unknown id: every backend 404s, the gateway answers 404.
	get2, err := http.Get(ts.URL + "/v1/runs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, get2.Body)
	get2.Body.Close()
	if get2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown id = %d, want 404", get2.StatusCode)
	}
}

// TestFailoverToNextPreferred: with the home backend down, an idempotent
// POST retries on the next-preferred backend and succeeds; the abandoned
// backend's error and retry counters observe it.
func TestFailoverToNextPreferred(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2")}
	g, ts, addrs := testGateway(t, Config{}, fakes...)

	body := `{"workload":"milc","policy":"slip","seed":21}`
	ranked := Rank(keyFor(t, g, body), addrs)
	var homeFake *fakeBackend
	for _, f := range fakes {
		if f.ts.URL == ranked[0] {
			homeFake = f
		}
	}
	homeFake.ts.CloseClientConnections()
	homeFake.ts.Close() // the home is down before the health checker notices

	resp, raw := postVia(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("failover POST = %d (%s)", resp.StatusCode, raw)
	}
	if served := resp.Header.Get(backendHeader); served != ranked[1] {
		t.Fatalf("failover served by %s, want next-preferred %s", served, ranked[1])
	}
	snap := g.Metrics().Snapshot(ranked[0])
	if snap.Errors == 0 || snap.Retries == 0 {
		t.Fatalf("abandoned backend counters = %+v, want errors and retries > 0", snap)
	}
}

// TestHealthEjectionAndRestore: a backend whose /readyz fails is ejected
// after FailThreshold probes (counted), new keys re-route, and flipping
// readiness back restores it after RiseThreshold probes.
func TestHealthEjectionAndRestore(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, "b0"), newFakeBackend(t, "b1")}
	g, ts, addrs := testGateway(t, Config{FailThreshold: 2, RiseThreshold: 2}, fakes...)

	sick := fakes[0]
	sick.ready.Store(http.StatusServiceUnavailable)
	waitFor(t, "ejection", func() bool {
		up, _, _ := g.stateSnapshot()
		return !up[sick.ts.URL]
	})
	if n := g.Metrics().Snapshot(sick.ts.URL).Ejections; n != 1 {
		t.Fatalf("ejections = %d, want 1", n)
	}

	// The gateway stays ready (one backend remains) and everything routes
	// to the survivor.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway readyz with 1 healthy backend = %d", resp.StatusCode)
	}
	for i := 0; i < 4; i++ {
		r, raw := postVia(t, ts, fmt.Sprintf(`{"workload":"milc","policy":"slip","seed":%d}`, 300+i))
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("POST during ejection = %d (%s)", r.StatusCode, raw)
		}
		if served := r.Header.Get(backendHeader); served != fakes[1].ts.URL {
			t.Fatalf("POST served by ejected backend %s", served)
		}
	}

	sick.ready.Store(http.StatusOK)
	waitFor(t, "restore", func() bool {
		up, _, _ := g.stateSnapshot()
		return up[sick.ts.URL]
	})
	_ = addrs
}

// TestDrainReroutesNewKeys: draining a backend removes it from new-key
// routing immediately (no data movement for others — rendezvous), while
// GET /v1/runs/{id} still reaches the draining backend's in-flight jobs.
// Undraining restores exactly its key range.
func TestDrainReroutesNewKeys(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2")}
	g, ts, addrs := testGateway(t, Config{}, fakes...)

	// Find a body homed on fakes[0].
	var body, key string
	for seed := 0; ; seed++ {
		body = fmt.Sprintf(`{"workload":"milc","policy":"slip","seed":%d}`, 1000+seed)
		key = keyFor(t, g, body)
		if Owner(key, addrs) == fakes[0].ts.URL {
			break
		}
	}
	resp, raw := postVia(t, ts, body)
	if got := resp.Header.Get(backendHeader); got != fakes[0].ts.URL {
		t.Fatalf("pre-drain POST served by %s, want %s", got, fakes[0].ts.URL)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &v); err != nil || v.ID == "" {
		t.Fatalf("POST body %s", raw)
	}

	// Drain via the admin API.
	dresp, err := http.Post(ts.URL+"/admin/backends/"+fakes[0].ts.URL[len("http://"):]+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d", dresp.StatusCode)
	}

	// New keys skip the drained backend; survivors keep their homes.
	survivors := []string{fakes[1].ts.URL, fakes[2].ts.URL}
	resp2, _ := postVia(t, ts, body)
	if got := resp2.Header.Get(backendHeader); got != Owner(key, survivors) {
		t.Fatalf("drained-key POST served by %s, want survivor home %s", got, Owner(key, survivors))
	}

	// The drained backend's in-flight job stays reachable by id.
	jresp, err := http.Get(ts.URL + "/v1/runs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, jresp.Body)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK || jresp.Header.Get(backendHeader) != fakes[0].ts.URL {
		t.Fatalf("routed GET during drain = %d via %s, want 200 via the draining backend", jresp.StatusCode, jresp.Header.Get(backendHeader))
	}

	// Undrain: the key comes home.
	uresp, err := http.Post(ts.URL+"/admin/backends/"+fakes[0].ts.URL[len("http://"):]+"/undrain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, uresp.Body)
	uresp.Body.Close()
	resp3, _ := postVia(t, ts, body)
	if got := resp3.Header.Get(backendHeader); got != fakes[0].ts.URL {
		t.Fatalf("post-undrain POST served by %s, want home restored", got)
	}
}

// TestGetResultScanFallback: a key fetch tries its home first, then scans
// the remaining candidates — a result stranded on a non-home backend
// (membership changed since it was stored) is still found.
func TestGetResultScanFallback(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2")}
	_, ts, addrs := testGateway(t, Config{}, fakes...)

	key := "s1:" + strings.Repeat("ab", 32)
	// Strand the result on a backend that is NOT the key's home.
	home := Owner(key, addrs)
	var stranded *fakeBackend
	for _, f := range fakes {
		if f.ts.URL != home {
			stranded = f
			break
		}
	}
	stranded.mu.Lock()
	stranded.results[key] = `{"workload":"stranded"}`
	stranded.mu.Unlock()

	resp, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte("stranded")) {
		t.Fatalf("GET result = %d (%s), want the stranded result", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(backendHeader); got != stranded.ts.URL {
		t.Fatalf("result served by %s, want %s", got, stranded.ts.URL)
	}

	// A key nobody has 404s.
	resp2, err := http.Get(ts.URL + "/v1/results/s1:" + strings.Repeat("00", 32))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET absent result = %d, want 404", resp2.StatusCode)
	}
}

// TestNoReadyBackend: with every backend ejected the gateway reports
// unready and refuses new work with 503 (counted), rather than hanging.
func TestNoReadyBackend(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, "b0")}
	g, ts, _ := testGateway(t, Config{FailThreshold: 1}, fakes...)
	fakes[0].ready.Store(http.StatusServiceUnavailable)
	waitFor(t, "ejection", func() bool {
		up, _, _ := g.stateSnapshot()
		return !up[fakes[0].ts.URL]
	})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gateway readyz with no backends = %d, want 503", resp.StatusCode)
	}
	presp, raw := postVia(t, ts, `{"workload":"milc","policy":"slip"}`)
	if presp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST with no backends = %d (%s), want 503", presp.StatusCode, raw)
	}
}

// TestBadRequestsRejectedAtTheEdge: the gateway derives the key itself, so
// malformed bodies and unknown fields die at the edge without touching a
// backend.
func TestBadRequestsRejectedAtTheEdge(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t, "b0")}
	_, ts, _ := testGateway(t, Config{}, fakes...)
	for _, body := range []string{
		`{`,
		`{"workload":"milc"}`,
		`{"workload":"milc","policy":"slip","acesses":5}`,
		`{"workload":"milc","policy":"not-a-policy"}`,
	} {
		resp, _ := postVia(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	if n := fakes[0].postCount(); n != 0 {
		t.Fatalf("malformed bodies reached a backend %d times", n)
	}
}

// TestRouteTableBound: the id route LRU stays within Config.RouteTableCap.
func TestRouteTableBound(t *testing.T) {
	g, err := New(Config{Backends: []string{"http://x:1"}, RouteTableCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown()
	for i := 0; i < 20; i++ {
		g.routes.Put(fmt.Sprintf("id%d", i), "a")
	}
	if n := g.routes.Stats().Entries; n != 4 {
		t.Fatalf("route table len = %d, want cap 4", n)
	}
	if _, ok := g.routes.Peek("id0"); ok {
		t.Fatal("evicted route still present")
	}
	if addr, ok := g.routes.Peek("id19"); !ok || addr != "a" {
		t.Fatal("fresh route lost")
	}
}

// TestDefaultsAffectKeyDerivation: eliding defaulted fields must hash the
// same as spelling them out under the gateway's configured defaults — the
// affinity contract for default-elided requests.
func TestDefaultsAffectKeyDerivation(t *testing.T) {
	w := uint64(5000)
	g, err := New(Config{
		Backends: []string{"http://x:1"},
		Defaults: service.Defaults{Accesses: 5000, Warmup: &w, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown()
	k1 := keyFor(t, g, `{"workload":"milc","policy":"slip"}`)
	k2 := keyFor(t, g, `{"workload":"milc","policy":"slip","accesses":5000,"warmup":5000,"seed":9}`)
	if k1 != k2 {
		t.Fatalf("elided defaults hash differently: %s vs %s", k1, k2)
	}
}
