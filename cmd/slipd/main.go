// Command slipd serves SLIP simulations over HTTP/JSON: a bounded job
// queue with 429 backpressure, a worker pool over the experiments engine,
// an LRU result store, per-job deadlines, Prometheus metrics, and graceful
// drain on SIGINT/SIGTERM. See the "Running slipd" section of README.md
// for the endpoint reference and curl examples.
//
// Usage:
//
//	slipd [-addr :8080] [-workers N] [-queue N] [-store N]
//	      [-store-dir /var/lib/slipd] [-store-disk-mb 1024] [-store-fsync]
//	      [-accesses N] [-warmup N] [-seed N]
//	      [-job-timeout 5m] [-drain-timeout 30s]
//	      [-trace-cache-mb 256] [-warm-cache-mb 256]
//	      [-pprof-addr 127.0.0.1:6060]
//
// -store-dir (off by default) layers a durable content-addressed result
// store under the in-memory LRU: completed results are written behind to
// disk (atomic tmp+rename, checksum-verified reads) and a restarted daemon
// on the same directory answers for everything it ever simulated.
//
// -pprof-addr (off by default) serves net/http/pprof on a separate
// listener, so daemon hot paths can be profiled in place without exposing
// the profiling surface on the API address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux only
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/castore"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/workloads"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker pool size")
		queue    = flag.Int("queue", 64, "job queue depth (full queue answers 429)")
		storeCap = flag.Int("store", 256, "LRU result store capacity, also the number of finished jobs kept for polling")
		storeDir = flag.String("store-dir", "", "durable result store directory (empty = memory only)")
		storeMB  = flag.Int64("store-disk-mb", 1024, "durable store byte budget in MiB (0 = unlimited)")
		storeFS  = flag.Bool("store-fsync", false, "fsync durable store writes before commit")
		acc      = flag.Uint64("accesses", spec.DefaultAccesses, "default measured accesses per run")
		warmup   = flag.Int64("warmup", -1, "default warmup accesses (-1 = same as -accesses)")
		seed     = flag.Uint64("seed", spec.DefaultSeed, "default random seed")
		jobTO    = flag.Duration("job-timeout", 5*time.Minute, "per-job deadline; expired jobs report cancelled")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
		traceMB  = flag.Int64("trace-cache-mb", 256, "trace cache budget in MiB of the /v1/experiments suite; jobs record no traces (0 disables)")
		warmMB   = flag.Int64("warm-cache-mb", 256, "warm-state snapshot cache budget in MiB (0 disables)")
		pprofFl  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "slipd: "+format+"\n", args...)
		os.Exit(2)
	}
	if *workers <= 0 {
		fail("-workers must be >= 1 (got %d)", *workers)
	}
	if *queue <= 0 {
		fail("-queue must be >= 1 (got %d)", *queue)
	}
	if *storeCap <= 0 {
		fail("-store must be >= 1 (got %d)", *storeCap)
	}
	if *acc == 0 {
		fail("-accesses must be > 0")
	}
	if *warmup < -1 {
		fail("-warmup must be >= 0, or -1 for the same as -accesses (got %d)", *warmup)
	}
	var warm *uint64
	if *warmup >= 0 {
		w := uint64(*warmup)
		warm = &w
	}
	if err := spec.CheckSizing(*acc, warm); err != nil {
		fail("%v", err)
	}
	if *jobTO <= 0 {
		fail("-job-timeout must be positive (got %v)", *jobTO)
	}
	if *drainTO <= 0 {
		fail("-drain-timeout must be positive (got %v)", *drainTO)
	}
	if *traceMB < 0 {
		fail("-trace-cache-mb must be >= 0 (got %d)", *traceMB)
	}
	if *warmMB < 0 {
		fail("-warm-cache-mb must be >= 0 (got %d)", *warmMB)
	}
	if *storeMB < 0 {
		fail("-store-disk-mb must be >= 0 (got %d)", *storeMB)
	}
	if err := workloads.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	logger := log.New(os.Stderr, "slipd: ", log.LstdFlags)
	cfg := service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		StoreCap:   *storeCap,
		Defaults:   service.Defaults{Accesses: *acc, Warmup: warm, Seed: *seed},
		JobTimeout: *jobTO,
		Log:        logger,
	}
	if *traceMB == 0 {
		cfg.TraceCacheBytes = -1 // disabled
	} else {
		cfg.TraceCacheBytes = *traceMB << 20
	}
	if *warmMB == 0 {
		cfg.WarmCacheBytes = -1 // disabled
	} else {
		cfg.WarmCacheBytes = *warmMB << 20
	}
	if *storeDir != "" {
		disk, err := castore.Open(*storeDir, castore.Options{MaxBytes: *storeMB << 20, Fsync: *storeFS})
		if err != nil {
			fail("opening -store-dir: %v", err)
		}
		cfg.DiskStore = disk
		logger.Printf("durable result store at %s (%d entries, %d bytes)", *storeDir, disk.Len(), disk.Bytes())
	}

	srv := service.New(cfg)
	srv.Start()

	// The profiling listener is separate from the API listener and uses
	// the default mux, where the blank net/http/pprof import registered
	// its handlers; the API mux never exposes them.
	if *pprofFl != "" {
		go func() {
			logger.Printf("pprof listening on %s", *pprofFl)
			if err := http.ListenAndServe(*pprofFl, nil); err != nil {
				logger.Printf("pprof listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (%d workers, queue %d, store %d)", *addr, *workers, *queue, *storeCap)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		logger.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}

	logger.Printf("signal received, draining (budget %v)", *drainTO)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("drain incomplete, in-flight jobs cancelled: %v", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("listener: %v", err)
	}
	logger.Printf("drained cleanly")
}
