package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer builds a started server plus an httptest front end.
func testServer(t *testing.T, cfg Config, hook func(*Job)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Defaults.Accesses == 0 {
		cfg.Defaults.Accesses = 20_000
	}
	srv := New(cfg)
	srv.testHookJobStart = hook
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// postRun submits a run body and decodes the response.
func postRun(t *testing.T, ts *httptest.Server, body string) (int, JobView, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v JobView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode, v, resp.Header
}

// pollJob polls GET /v1/runs/{id} until the job leaves queued/running.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.State != StateQueued && v.State != StateRunning {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobView{}
}

// TestEndToEndRunAndResultCache drives the acceptance path: POST queues a
// small run, GET reports completion with a non-empty result, and an
// identical second POST is answered from the result store with the
// cache-hit counter in /metrics observing it.
func TestEndToEndRunAndResultCache(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 2, QueueDepth: 8}, nil)

	body := `{"workload":"milc","policy":"slip+abp","accesses":20000,"warmup":20000,"seed":7}`
	code, v, _ := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	if v.ID == "" || v.State != StateQueued {
		t.Fatalf("POST view = %+v, want queued with id", v)
	}

	done := pollJob(t, ts, v.ID)
	if done.State != StateCompleted {
		t.Fatalf("job finished %s (%s), want completed", done.State, done.Error)
	}
	res := done.Result
	if res == nil || res.FullSystemPJ <= 0 || res.Cycles <= 0 || res.Instrs == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.L2HitRate < 0 || res.L2HitRate > 1 || res.L3HitRate < 0 || res.L3HitRate > 1 {
		t.Errorf("hit rates out of range: %+v", res)
	}
	if done.Progress != done.Total || done.Total != 40_000 {
		t.Errorf("progress/total = %d/%d, want 40000/40000", done.Progress, done.Total)
	}

	code, v2, _ := postRun(t, ts, body)
	if code != http.StatusOK || !v2.Cached {
		t.Fatalf("identical POST = %d cached=%v, want 200 from the result store", code, v2.Cached)
	}
	// The cached view counts what the job drove (warmup included), as
	// the job's own view does.
	if v2.Progress != 40_000 || v2.Total != 40_000 {
		t.Errorf("cached progress/total = %d/%d, want 40000/40000", v2.Progress, v2.Total)
	}
	if v2.Result == nil || v2.Result.FullSystemPJ != res.FullSystemPJ {
		t.Errorf("cached result differs: %+v vs %+v", v2.Result, res)
	}
	if hits := srv.Metrics().CacheHits(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	metrics := getBody(t, ts, "/metrics")
	for _, want := range []string{
		"slipd_result_cache_hits_total 1",
		"slipd_jobs_total{state=\"completed\"} 1",
		"slipd_run_seconds_count 1",
		"slipd_sim_accesses_total 40000",
		"slipd_queue_capacity 8",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// getBody fetches a path and returns its body.
func getBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return buf.String()
}

// TestQueueFullReturns429: with one blocked worker and a depth-1 queue,
// the third distinct request must be refused with Retry-After.
func TestQueueFullReturns429(t *testing.T) {
	started := make(chan *Job, 4)
	release := make(chan struct{})
	hook := func(j *Job) {
		started <- j
		<-release
	}
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 1}, hook)
	defer close(release)

	body := func(seed int) string {
		return fmt.Sprintf(`{"workload":"milc","policy":"baseline","accesses":20000,"warmup":0,"seed":%d}`, seed)
	}
	code, _, _ := postRun(t, ts, body(1))
	if code != http.StatusAccepted {
		t.Fatalf("POST 1 = %d", code)
	}
	<-started // worker has claimed job 1 and is parked in the hook
	if code, _, _ = postRun(t, ts, body(2)); code != http.StatusAccepted {
		t.Fatalf("POST 2 = %d, want 202 (fills the queue)", code)
	}
	code, _, hdr := postRun(t, ts, body(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("POST 3 = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestPendingDeduplication: an identical POST while the first is still
// in flight must join the existing job, not queue a duplicate.
func TestPendingDeduplication(t *testing.T) {
	started := make(chan *Job, 2)
	release := make(chan struct{})
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, func(j *Job) {
		started <- j
		<-release
	})
	defer close(release)

	body := `{"workload":"milc","policy":"baseline","accesses":20000,"warmup":0,"seed":9}`
	_, v1, _ := postRun(t, ts, body)
	<-started
	code, v2, _ := postRun(t, ts, body)
	if code != http.StatusAccepted || v2.ID != v1.ID {
		t.Fatalf("duplicate POST = %d id %q, want 202 joining job %q", code, v2.ID, v1.ID)
	}
}

// TestDeadlineReportsCancelled: a job whose deadline expires mid-trace
// must finish in state cancelled, never completed.
func TestDeadlineReportsCancelled(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, nil)
	body := `{"workload":"milc","policy":"baseline","accesses":500000000,"warmup":0,"seed":3,"timeout_ms":50}`
	code, v, _ := postRun(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	done := pollJob(t, ts, v.ID)
	if done.State != StateCancelled {
		t.Fatalf("deadline-expired job reported %s, want cancelled", done.State)
	}
	if done.Result != nil {
		t.Error("cancelled job carries a result")
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", done.Error)
	}
}

// TestGracefulShutdownDrains: Shutdown must wait for the in-flight job,
// flip readyz to 503 (while healthz keeps reporting the process alive),
// refuse new work, and report the job completed.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	srv, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, func(j *Job) {
		started <- j
		<-release
	})

	body := `{"workload":"milc","policy":"baseline","accesses":20000,"warmup":0,"seed":11}`
	_, v, _ := postRun(t, ts, body)
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Draining: readiness flips so routers stop sending work, liveness
	// stays green (the process is alive, finishing its backlog), intake
	// refuses.
	waitFor(t, func() bool { return srv.Draining() })
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz while draining = %d, want 200 (liveness, not readiness)", resp.StatusCode)
		}
	}
	if code, _, _ := postRun(t, ts, `{"workload":"milc","policy":"baseline","seed":12}`); code != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503", code)
	}

	close(release) // let the in-flight job finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	if done := pollJob(t, ts, v.ID); done.State != StateCompleted {
		t.Errorf("drained job reported %s, want completed", done.State)
	}
}

// waitFor polls a condition with a test-scaled deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestValidationAndNotFound covers the 400/404 surfaces.
func TestValidationAndNotFound(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	for _, body := range []string{
		`{`,
		`{"policy":"baseline"}`,
		`{"workload":"milc"}`,
		`{"workload":"nonesuch","policy":"baseline"}`,
		`{"workload":"milc","policy":"nonesuch"}`,
		`{"workload":"milc","policy":"baseline","bogus_field":1}`,
		`{"workload":"milc","policy":"baseline","cores":16}`,
	} {
		if code, _, _ := postRun(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, code)
		}
	}
	for path, want := range map[string]int{
		"/v1/runs/deadbeef":        http.StatusNotFound,
		"/v1/experiments/nonesuch": http.StatusNotFound,
		"/v1/does-not-exist":       http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestPostBodyCap: a body over maxRunBody is refused with 413 before it is
// read in full; a request padded to exactly the cap is served.
func TestPostBodyCap(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 2}, nil)
	over := `{"workload":"` + strings.Repeat("m", 8*maxRunBody) + `","policy":"baseline"}`
	if code, _, _ := postRun(t, ts, over); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST of %d bytes = %d, want 413", len(over), code)
	}
	body := `{"workload":"milc","policy":"baseline"}`
	if code, _, _ := postRun(t, ts, strings.Repeat(" ", maxRunBody-len(body))+body); code != http.StatusAccepted {
		t.Errorf("POST of %d bytes = %d, want 202", maxRunBody, code)
	}
}

// TestExperimentEndpoint renders a paper experiment over HTTP; fig1 is the
// cheapest one that simulates.
func TestExperimentEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the fig1 workload set")
	}
	_, ts := testServer(t, Config{Workers: 2, QueueDepth: 2, Defaults: Defaults{Accesses: 10_000}}, nil)
	resp, err := http.Get(ts.URL + "/v1/experiments/fig1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET fig1 = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "Figure 1") && len(bytes.TrimSpace(raw)) == 0 {
		t.Errorf("fig1 render empty or unrecognizable:\n%s", raw)
	}
}

// TestExperimentRendersAgree: renders only read the memo, so four
// concurrent requests for Fig. 1 and a later one print the same table.
// The runs are long enough for the L3 to evict lines, so counting the
// resident lines twice would change the printed fractions.
func TestExperimentRendersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the fig1 workload set")
	}
	_, ts := testServer(t, Config{Workers: 2, QueueDepth: 2, Defaults: Defaults{Accesses: 40_000}}, nil)
	get := func() (string, error) {
		resp, err := http.Get(ts.URL + "/v1/experiments/fig1")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		return string(raw), err
	}
	bodies := make([]string, 5)
	errs := make([]error, 5)
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i], errs[i] = get()
		}()
	}
	wg.Wait()
	bodies[4], errs[4] = get()
	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("GET fig1 #%d: %v", i, errs[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("GET fig1 #%d differs from #0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

// TestExperimentPrefetchesOneAtATime: while another render holds the
// prefetch slot, a GET waits for it under its deadline and answers 504
// without simulating anything; once the slot is free, the GET renders.
func TestExperimentPrefetchesOneAtATime(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the fig1 workload set")
	}
	srv, ts := testServer(t, Config{Workers: 2, QueueDepth: 2, JobTimeout: 2 * time.Second,
		Defaults: Defaults{Accesses: 5_000}}, nil)
	get := func() (int, string) {
		resp, err := http.Get(ts.URL + "/v1/experiments/fig1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	srv.expSlot <- struct{}{}
	if code, body := get(); code != http.StatusGatewayTimeout {
		t.Errorf("GET fig1 with the slot held = %d, want 504: %s", code, body)
	}
	if keys := srv.expSuite.Keys(); len(keys) != 0 {
		t.Errorf("GET fig1 with the slot held simulated %d runs, want none", len(keys))
	}
	<-srv.expSlot
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "Figure 1") {
		t.Errorf("GET fig1 with the slot free = %d, want 200 and the table:\n%s", code, body)
	}
}

// TestJobsRecordNoTraces: every job brings its own stream, so a job
// records no trace, and a second policy over the same workload and seed
// generates its stream again. The daemon's trace cache belongs to the
// /v1/experiments suite and stays empty.
func TestJobsRecordNoTraces(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1, QueueDepth: 4}, nil)
	for _, pol := range []string{"slip+abp", "slip"} {
		body := fmt.Sprintf(`{"workload":"milc","policy":%q,"accesses":5000,"warmup":5000,"seed":7}`, pol)
		code, v, _ := postRun(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("POST %s = %d, want 202", pol, code)
		}
		if done := pollJob(t, ts, v.ID); done.State != StateCompleted {
			t.Fatalf("%s finished %s (%s), want completed", pol, done.State, done.Error)
		}
	}
	if st := srv.TraceCacheStats(); st.Misses != 0 || st.Hits != 0 || st.Bytes != 0 {
		t.Errorf("trace cache after two jobs = %+v, want no lookups and no bytes", st)
	}
}

// TestFinishedJobsBounded: the job table keeps only the newest StoreCap
// finished jobs, so a long-serving daemon's memory stays bounded. The
// newest id still answers; the oldest has been forgotten.
func TestFinishedJobsBounded(t *testing.T) {
	srv, ts := testServer(t, Config{Workers: 1, QueueDepth: 8, StoreCap: 4}, nil)
	var ids []string
	for seed := 1; seed <= 40; seed++ {
		body := fmt.Sprintf(`{"workload":"milc","policy":"baseline","accesses":1000,"warmup":0,"seed":%d}`, seed)
		code, v, _ := postRun(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("POST seed %d = %d, want 202", seed, code)
		}
		if done := pollJob(t, ts, v.ID); done.State != StateCompleted {
			t.Fatalf("seed %d finished %s (%s), want completed", seed, done.State, done.Error)
		}
		ids = append(ids, v.ID)
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n > 4 {
		t.Errorf("job table holds %d jobs after 40 finished, want <= StoreCap 4", n)
	}
	status := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(ids[len(ids)-1]); got != http.StatusOK {
		t.Errorf("newest job GET = %d, want 200", got)
	}
	if got := status(ids[0]); got != http.StatusNotFound {
		t.Errorf("oldest job GET = %d, want 404", got)
	}
}
