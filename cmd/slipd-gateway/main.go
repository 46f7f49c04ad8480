// Command slipd-gateway fronts a fleet of slipd backends with
// consistent-hash sharding: POST /v1/runs routes by the canonical spec
// hash (rendezvous/highest-random-weight), so the same spec always lands
// on the backend whose warm-state and durable result caches already hold
// it — routing is cache affinity. Backends are health-checked on /readyz,
// ejected and restored with thresholds, drainable live via the admin API,
// and idempotent requests fail over to the next-preferred backend with
// bounded backoff. See the "Running a slipd cluster" section of README.md.
//
// Usage:
//
//	slipd-gateway -backends host:8081,host:8082,host:8083
//	    [-addr :8080]
//	    [-accesses 2000000] [-warmup -1] [-seed 42]
//	    [-health-interval 1s] [-health-timeout 500ms]
//	    [-fail-threshold 2] [-rise-threshold 2]
//	    [-attempts 0] [-retry-backoff 100ms]
//	    [-routes 4096] [-proxy-timeout 2m]
//
// -accesses/-warmup/-seed must match the backends' flags: the gateway
// stamps the same defaults before hashing so both sides derive the same
// key for default-elided requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/service"
	"repro/internal/spec"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		backends   = flag.String("backends", "", "comma-separated slipd backend addresses (required)")
		acc        = flag.Uint64("accesses", spec.DefaultAccesses, "default measured accesses stamped before hashing (match the backends)")
		warmup     = flag.Int64("warmup", -1, "default warmup accesses stamped before hashing (-1 = same as -accesses)")
		seed       = flag.Uint64("seed", spec.DefaultSeed, "default seed stamped before hashing (match the backends)")
		healthIv   = flag.Duration("health-interval", time.Second, "backend /readyz probe period")
		healthTO   = flag.Duration("health-timeout", 500*time.Millisecond, "single probe timeout")
		failThresh = flag.Int("fail-threshold", 2, "consecutive failed probes that eject a backend")
		riseThresh = flag.Int("rise-threshold", 2, "consecutive successful probes that restore a backend")
		attempts   = flag.Int("attempts", 0, "max backends tried per request (0 = all ready candidates)")
		backoff    = flag.Duration("retry-backoff", 100*time.Millisecond, "base delay between failover attempts")
		routes     = flag.Int("routes", 4096, "job id -> backend route table capacity")
		proxyTO    = flag.Duration("proxy-timeout", 2*time.Minute, "per-proxied-request timeout")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "slipd-gateway: "+format+"\n", args...)
		os.Exit(2)
	}
	var addrs []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			addrs = append(addrs, b)
		}
	}
	if len(addrs) == 0 {
		fail("-backends is required (comma-separated slipd addresses)")
	}
	if *acc == 0 {
		fail("-accesses must be > 0")
	}
	if *healthIv <= 0 || *healthTO <= 0 {
		fail("-health-interval and -health-timeout must be positive")
	}
	if *failThresh <= 0 || *riseThresh <= 0 {
		fail("-fail-threshold and -rise-threshold must be >= 1")
	}
	if *attempts < 0 {
		fail("-attempts must be >= 0 (got %d)", *attempts)
	}
	if *routes <= 0 {
		fail("-routes must be >= 1 (got %d)", *routes)
	}

	logger := log.New(os.Stderr, "slipd-gateway: ", log.LstdFlags)
	defaults := service.Defaults{Accesses: *acc, Seed: *seed}
	if *warmup >= 0 {
		w := uint64(*warmup)
		defaults.Warmup = &w
	}
	g, err := gateway.New(gateway.Config{
		Backends:       addrs,
		Defaults:       defaults,
		HealthInterval: *healthIv,
		HealthTimeout:  *healthTO,
		FailThreshold:  *failThresh,
		RiseThreshold:  *riseThresh,
		MaxAttempts:    *attempts,
		RetryBackoff:   *backoff,
		RouteTableCap:  *routes,
		Client:         &http.Client{Timeout: *proxyTO},
		Log:            logger,
	})
	if err != nil {
		fail("%v", err)
	}
	g.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: g.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s, sharding %d backends: %s", *addr, len(addrs), strings.Join(addrs, ", "))
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		logger.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}

	logger.Printf("signal received, shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	g.Shutdown()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("listener: %v", err)
	}
	logger.Printf("stopped")
}
