package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
)

// Handler builds the gateway's HTTP mux:
//
//	POST /v1/runs                       shard by spec hash, proxy with failover
//	GET  /v1/runs/{id}                  proxy to the job's backend (route table)
//	GET  /v1/results/{key}              shard by key, scan fallback
//	GET  /v1/experiments/{name}         shard by experiment name
//	GET  /v1/policies                   policy table (answered locally)
//	GET  /healthz                       gateway liveness
//	GET  /readyz                        200 iff >= 1 backend accepts new work
//	GET  /metrics                       Prometheus text format
//	GET  /admin/backends                backend states + counters (JSON)
//	POST /admin/backends/{addr}/drain   remove addr from new-key routing
//	POST /admin/backends/{addr}/undrain restore addr
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", g.handlePostRun)
	mux.HandleFunc("GET /v1/runs/{id}", g.handleGetRun)
	mux.HandleFunc("GET /v1/results/{key}", g.handleGetResult)
	mux.HandleFunc("GET /v1/experiments/{name}", g.handleExperiment)
	mux.HandleFunc("GET /v1/policies", g.handlePolicies)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /admin/backends", g.handleAdminList)
	mux.HandleFunc("POST /admin/backends/{addr}/drain", g.adminDrain(true))
	mux.HandleFunc("POST /admin/backends/{addr}/undrain", g.adminDrain(false))
	return mux
}

// writeJSON / writeError mirror the slipd error envelope so clients see
// one wire format whether they talk to a node or the gateway.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handlePolicies answers locally: the policy table is compiled into every
// binary of the cluster, so the gateway is as authoritative as any
// backend and the answer stays available with zero healthy nodes.
func (g *Gateway) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, service.Policies())
}

// backendHeader names the answering backend on every proxied response, so
// clients, the smoke test and the affinity assertions can see placement.
const backendHeader = "X-Slipd-Backend"

// keyHeader carries the gateway-computed canonical spec hash.
const keyHeader = "X-Slipd-Key"

// retryableStatus reports whether a backend answer may be retried on the
// next-preferred backend: gateway-shaped 5xx that another node can
// plausibly serve. 429 is NOT retryable — backpressure must reach the
// client rather than stampede the next shard with misplaced keys.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// proxyOnce forwards one request body to addr and returns the response
// with its body read (bounded). Latency and error metrics are recorded.
func (g *Gateway) proxyOnce(r *http.Request, addr, method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, addr+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		g.metrics.Error(addr)
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		g.metrics.Error(addr)
		return 0, nil, nil, err
	}
	if resp.StatusCode >= 500 {
		g.metrics.Error(addr)
	}
	g.metrics.Request(addr, time.Since(start).Seconds())
	return resp.StatusCode, resp.Header, respBody, nil
}

// relay copies a backend answer to the client, stamping the backend and
// key headers.
func relay(w http.ResponseWriter, addr, key string, status int, hdr http.Header, body []byte) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(backendHeader, addr)
	if key != "" {
		w.Header().Set(keyHeader, key)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// proxyWithFailover walks the ranked candidates, retrying transport
// failures and retryable statuses with bounded linear backoff. The last
// response (or a 502) reaches the client.
func (g *Gateway) proxyWithFailover(w http.ResponseWriter, r *http.Request, key string, cands []string, method, path string, body []byte, onSuccess func(addr string, status int, respBody []byte)) {
	if len(cands) == 0 {
		g.metrics.NoBackend()
		writeError(w, http.StatusServiceUnavailable, "no ready backend")
		return
	}
	attempts := len(cands)
	if g.cfg.MaxAttempts > 0 && g.cfg.MaxAttempts < attempts {
		attempts = g.cfg.MaxAttempts
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			g.metrics.Retry(cands[i-1])
			select {
			case <-time.After(g.cfg.RetryBackoff * time.Duration(i)):
			case <-r.Context().Done():
				writeError(w, http.StatusGatewayTimeout, "client gave up during failover: %v", r.Context().Err())
				return
			}
		}
		addr := cands[i]
		status, hdr, respBody, err := g.proxyOnce(r, addr, method, path, body)
		if err != nil {
			lastErr = err
			g.cfg.Log.Printf("%s %s via %s: %v", method, path, addr, err)
			continue
		}
		if retryableStatus(status) && i+1 < attempts {
			lastErr = fmt.Errorf("backend %s answered %d", addr, status)
			continue
		}
		relay(w, addr, key, status, hdr, respBody)
		if onSuccess != nil && status < 300 {
			onSuccess(addr, status, respBody)
		}
		return
	}
	writeError(w, http.StatusBadGateway, "all %d candidate backends failed (last: %v)", attempts, lastErr)
}

// handlePostRun shards a run submission by its canonical spec hash. The
// POST is idempotent — the body is the content-addressed identity of the
// work — so failover to the next-preferred backend is always safe: worst
// case two backends simulate the same spec, and both cache the identical
// result under the same key.
func (g *Gateway) handlePostRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "body over %d bytes", g.cfg.MaxBodyBytes)
		return
	}
	_, _, key, err := service.ParseRunRequest(body, g.cfg.Defaults)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.proxyWithFailover(w, r, key, g.candidates(key), http.MethodPost, "/v1/runs", body,
		func(addr string, _ int, respBody []byte) {
			// Remember where the job lives so GET /v1/runs/{id} follows it.
			var v struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(respBody, &v) == nil && v.ID != "" {
				g.routes.Put(v.ID, addr)
			}
		})
}

// handleGetRun follows the route table to the backend that owns the job.
// An unknown id (evicted route, gateway restart) falls back to asking
// every backend — including draining ones, whose in-flight jobs must stay
// reachable.
func (g *Gateway) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if addr, ok := g.routes.Peek(id); ok {
		status, hdr, body, err := g.proxyOnce(r, addr, http.MethodGet, "/v1/runs/"+id, nil)
		if err == nil {
			relay(w, addr, "", status, hdr, body)
			return
		}
		g.cfg.Log.Printf("GET /v1/runs/%s via routed %s: %v", id, addr, err)
	}
	_, _, order := g.stateSnapshot()
	for _, addr := range order {
		status, hdr, body, err := g.proxyOnce(r, addr, http.MethodGet, "/v1/runs/"+id, nil)
		if err != nil || status == http.StatusNotFound {
			continue
		}
		g.routes.Put(id, addr)
		relay(w, addr, "", status, hdr, body)
		return
	}
	writeError(w, http.StatusNotFound, "no backend knows job %q", id)
}

// handleGetResult shards a key fetch to the key's home backend. A 404
// there falls back to scanning the other candidates: after a membership
// change a result may persist on a backend that no longer owns the key.
func (g *Gateway) handleGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	cands := g.candidates(key)
	if len(cands) == 0 {
		g.metrics.NoBackend()
		writeError(w, http.StatusServiceUnavailable, "no ready backend")
		return
	}
	var last struct {
		addr   string
		status int
		hdr    http.Header
		body   []byte
	}
	for _, addr := range cands {
		status, hdr, body, err := g.proxyOnce(r, addr, http.MethodGet, "/v1/results/"+key, nil)
		if err != nil {
			continue
		}
		if status == http.StatusOK {
			relay(w, addr, key, status, hdr, body)
			return
		}
		last.addr, last.status, last.hdr, last.body = addr, status, hdr, body
	}
	if last.status != 0 {
		relay(w, last.addr, key, last.status, last.hdr, last.body)
		return
	}
	writeError(w, http.StatusBadGateway, "no backend reachable for key %q", key)
}

// handleExperiment shards a named experiment render by its name, so each
// experiment's whole run matrix memoizes on one backend.
func (g *Gateway) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g.proxyWithFailover(w, r, "", g.candidates("exp:"+name), http.MethodGet, "/v1/experiments/"+name, nil, nil)
}

// handleHealthz: the gateway process is alive.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz: ready iff at least one backend accepts new work.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if len(g.readySet()) == 0 {
		http.Error(w, "no ready backend", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the gateway registry.
func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	up, draining, _ := g.stateSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.metrics.WriteTo(w, gwGauges{up: up, draining: draining, routes: g.routes.Stats().Entries})
}

// BackendView is one backend's admin listing entry.
type BackendView struct {
	Addr     string `json:"addr"`
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining"`
	BackendSnapshot
}

// handleAdminList reports every backend's state and counters.
func (g *Gateway) handleAdminList(w http.ResponseWriter, _ *http.Request) {
	up, draining, order := g.stateSnapshot()
	views := make([]BackendView, 0, len(order))
	for _, addr := range order {
		views = append(views, BackendView{
			Addr:            addr,
			Ready:           up[addr],
			Draining:        draining[addr],
			BackendSnapshot: g.metrics.Snapshot(addr),
		})
	}
	writeJSON(w, http.StatusOK, views)
}

// adminDrain flips one backend's drain flag. Draining re-routes new keys
// immediately while the route table keeps in-flight jobs reachable on the
// draining node; undrain restores the backend's key range (rendezvous
// moves exactly its own keys back).
func (g *Gateway) adminDrain(draining bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		addr := r.PathValue("addr")
		if err := g.setDraining(addr, draining); err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"backend": CanonicalAddr(addr), "draining": draining})
	}
}
