package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/hier"
	"repro/internal/policy"
)

// Handler builds the daemon's HTTP mux:
//
//	POST /v1/runs               submit a run (202 queued / 200 cached / 429 full)
//	GET  /v1/runs/{id}          job status + result
//	GET  /v1/results/{key}      fetch a stored result by spec hash (memory or disk)
//	GET  /v1/experiments/{name} render a paper experiment as text tables
//	GET  /v1/policies           enumerate the policy table with metadata
//	GET  /healthz               liveness (always 200 while the process serves)
//	GET  /readyz                readiness (503 while draining)
//	GET  /metrics               Prometheus text format
//
// GET /v1/runs/{id} answers for queued and running jobs and for the newest
// Config.StoreCap finished ones; an older id answers 404, and its result
// stays reachable by key through POST /v1/runs or GET /v1/results/{key}
// while the store holds it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handlePostRun)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("GET /v1/results/{key}", s.handleGetResult)
	mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	mux.HandleFunc("GET /v1/policies", handlePolicies)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError sends an error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxRunBody bounds a POST /v1/runs body; a full canonical spec needs
// well under 1 KiB.
const maxRunBody = 1 << 20

// handlePostRun admits one simulation request.
func (s *Server) handlePostRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRunBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxRunBody)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req, c, key, err := parseRunRequest(body, s.cfg.Defaults)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Identical effective requests are answered straight from the LRU
	// result store — the cache-hit counter in /metrics observes this.
	// The stored result's spec is c (its hash is key), so the view counts
	// the accesses its job did.
	if res, ok := s.store.Get(key); ok {
		s.metrics.CacheHit()
		total := totalAccesses(c)
		writeJSON(w, http.StatusOK, JobView{
			State:    StateCompleted,
			Key:      key,
			Cached:   true,
			Progress: total,
			Total:    total,
			Result:   res,
		})
		return
	}
	s.metrics.CacheMiss()

	view, err := s.submit(req, c, key)
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errors.Is(err, errQueueFull):
		// Backpressure: tell the client when to come back. One mean job
		// latency per queued slot ahead of it would be exact; a flat hint
		// keeps the contract simple.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full (%d waiting)", s.queue.Depth())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	writeJSON(w, http.StatusAccepted, view)
}

// handleGetRun reports a job's state and, when finished, its result.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	s.mu.Lock()
	view := j.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleExperiment reproduces one paper experiment over HTTP: the runs it
// needs are simulated under the request context (cancellable, deadline
// s.cfg.JobTimeout) on the shared suite's worker pool, one request's
// prefetch at a time, then the tables are rendered to the response as
// text. A request whose runs are all memoized renders at once, without
// waiting for the prefetch slot. The prefetch keeps the streams it
// records in the suite's trace cache, because later experiments replay
// the same default-seed streams.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !experiments.ValidExperiment(name) {
		writeError(w, http.StatusNotFound, "unknown experiment %q (valid: %v)", name, experiments.ExperimentNames())
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if specs := s.expSuite.SpecsFor(name); !s.expSuite.Memoized(specs) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.JobTimeout)
		defer cancel()
		var err error
		select {
		case s.expSlot <- struct{}{}:
			err = s.expSuite.PrefetchKeepingTraces(ctx, specs)
			<-s.expSlot
		case <-ctx.Done():
			err = ctx.Err()
		}
		if err != nil {
			writeError(w, http.StatusGatewayTimeout, "experiment %q timed out or was cancelled: %v", name, err)
			return
		}
	}

	// Rendering only reads the memo (everything is prefetched), so
	// concurrent renders need no lock: each prints to its own buffer.
	var buf bytes.Buffer
	if err := s.expSuite.WithOut(&buf).RunNamed(name); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = buf.WriteTo(w)
}

// PolicyList is the /v1/policies body: the policy table in order.
type PolicyList struct {
	Policies []policy.Descriptor `json:"policies"`
}

// handlePolicies serves the policy table: the daemon-side source of truth
// for the valid -policy set, per-policy aliases and capability metadata.
// It needs no server state — the table is fixed at compile time.
func handlePolicies(w http.ResponseWriter, _ *http.Request) {
	list := PolicyList{}
	for _, p := range hier.AllPolicies() {
		list.Policies = append(list.Policies, *p.Descriptor())
	}
	writeJSON(w, http.StatusOK, list)
}

// handleGetResult serves a stored result by its canonical spec hash —
// straight from the layered store (memory, then disk), never simulating.
// This is the restart-durability read path: a daemon reopened on the same
// -store-dir answers for every result it ever completed.
func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	res, ok := s.store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no stored result for key %q", key)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleHealthz is the liveness probe: 200 for as long as the process
// serves, draining included — "alive" and "accepting work" are different
// questions, and /readyz answers the second.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe; draining flips it to 503 so load
// balancers stop routing new work while in-flight jobs finish.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the Prometheus registry with live gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, Gauges{
		QueueDepth:    s.queue.Depth(),
		QueueCap:      s.queue.Cap(),
		JobsQueued:    s.queuedCount(),
		JobsRunning:   int(s.running.Load()),
		StoreLen:      s.store.Len(),
		StoreEvicted:  s.store.Evictions(),
		StoreCapacity: s.cfg.StoreCap,
		Trace:         s.TraceCacheStats(),
		Warm:          s.WarmCacheStats(),
		CAS:           s.store.DiskStats(),
	})
}
