package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/castore"
	"repro/internal/experiments"
	"repro/internal/spec"
)

// Config sizes the daemon. Zero values take the documented defaults.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds waiting jobs; a full queue answers 429 (default 64).
	QueueDepth int
	// StoreCap bounds the LRU result store (default 256). It also bounds
	// the finished jobs kept for GET /v1/runs/{id}: past StoreCap, the
	// oldest finished job is forgotten.
	StoreCap int
	// Defaults fill unset request fields (defaults spec.DefaultAccesses,
	// same-as-accesses warmup and spec.DefaultSeed).
	Defaults Defaults
	// JobTimeout is the per-job deadline; an expired job reports state
	// cancelled (default 5m). Requests may shorten it, never extend it.
	JobTimeout time.Duration
	// IntraParallelism is ignored: every job runs on one goroutine.
	//
	// Deprecated: nothing reads it.
	IntraParallelism int
	// TraceCacheBytes bounds the trace materialization cache of the
	// /v1/experiments suite, whose matrices replay each workload stream
	// under several policies (bit-identical results). Jobs never use it:
	// each brings its own stream (seed or measured window). Zero selects
	// experiments.DefaultTraceCacheBytes; negative disables
	// materialization.
	TraceCacheBytes int64
	// WarmCacheBytes bounds the warm-state snapshot cache shared by every
	// job: the post-warmup hierarchy state of each warmup identity is
	// simulated once and cloned by every later run sharing it
	// (bit-identical results). Zero selects
	// experiments.DefaultWarmCacheBytes; negative disables warm-state
	// caching.
	WarmCacheBytes int64
	// DiskStore, when set, is the durable content-addressed tier under the
	// in-memory result store: reads fall through to it, completed results
	// are written behind, and results survive a restart of the daemon on
	// the same directory. The server takes ownership (Shutdown flushes and
	// closes it).
	DiskStore *castore.Store
	// Log receives operational messages (default: discard).
	Log *log.Logger
}

// fill applies defaults.
func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.StoreCap <= 0 {
		c.StoreCap = 256
	}
	if c.Defaults.Accesses == 0 {
		c.Defaults.Accesses = spec.DefaultAccesses
	}
	if c.Defaults.Seed == 0 {
		c.Defaults.Seed = spec.DefaultSeed
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
}

// Server is the slipd core: queue + workers + result store + metrics,
// independent of the HTTP listener so tests can drive it via httptest.
type Server struct {
	cfg     Config
	queue   *Queue
	store   *Store
	metrics *Metrics

	// expSuite serves /v1/experiments with the server's default sizing;
	// its memo cache is bounded by the finite experiment matrix. It owns
	// the daemon's only trace cache, sized by cfg.TraceCacheBytes, and has
	// no warm cache: its runs all measure one window, so no two of them
	// share a warmup identity. Each render prints through its own
	// WithOut view.
	expSuite *experiments.Suite
	// expSlot admits one /v1/experiments prefetch at a time: each starts
	// up to Workers simulations beside the job workers, so concurrent
	// prefetches would multiply them. Renders run outside it.
	expSlot chan struct{}

	// warmCache is shared by the per-job suites: jobs differing only in
	// their measured window reuse one warm snapshot instead of
	// re-simulating the warmup. Nil when disabled by config.
	warmCache *experiments.WarmCache

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	draining atomic.Bool
	running  atomic.Int64

	mu      sync.Mutex
	jobs    map[string]*Job
	pending map[string]*Job // result key -> queued/running job (dedupe)
	// finished lists the ids of finished jobs still in jobs, oldest
	// first; finishJob trims it, and jobs with it, to cfg.StoreCap.
	finished []string

	// testHookJobStart, when set, runs at the top of every job on the
	// worker goroutine — tests use it to hold a worker busy
	// deterministically instead of racing wall-clock sleeps.
	testHookJobStart func(*Job)
}

// New builds a stopped server; call Start to launch the worker pool.
func New(cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	warmup := cfg.Defaults.Accesses
	if cfg.Defaults.Warmup != nil {
		warmup = *cfg.Defaults.Warmup
	}
	var warmCache *experiments.WarmCache
	if cfg.WarmCacheBytes >= 0 {
		warmCache = experiments.NewWarmCache(cfg.WarmCacheBytes)
	}
	s := &Server{
		cfg:     cfg,
		queue:   NewQueue(cfg.QueueDepth),
		store:   NewStoreWithDisk(cfg.StoreCap, cfg.DiskStore),
		metrics: NewMetrics(),
		expSuite: experiments.NewSuite(experiments.Options{
			Accesses:        cfg.Defaults.Accesses,
			Warmup:          warmup,
			WarmupSet:       true,
			Seed:            cfg.Defaults.Seed,
			Parallelism:     cfg.Workers,
			TraceCacheBytes: cfg.TraceCacheBytes,
		}),
		expSlot:   make(chan struct{}, 1),
		warmCache: warmCache,
		baseCtx:   ctx,
		cancel:    cancel,
		jobs:      make(map[string]*Job),
		pending:   make(map[string]*Job),
	}
	return s
}

// Metrics exposes the registry (tests assert on counters directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store exposes the result store.
func (s *Server) Store() *Store { return s.store }

// TraceCacheStats snapshots the experiment suite's trace materialization
// cache; all zeros when the cache is disabled.
func (s *Server) TraceCacheStats() experiments.TraceCacheStats {
	return s.expSuite.TraceCache().Stats()
}

// WarmCacheStats snapshots the shared warm-state snapshot cache; all zeros
// when the cache is disabled.
func (s *Server) WarmCacheStats() experiments.WarmCacheStats { return s.warmCache.Stats() }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown drains gracefully: intake stops (new POSTs get 503 and /readyz
// flips), queued and in-flight jobs run to completion, queued disk writes
// flush, then workers exit. If ctx expires first, running simulations are
// cancelled (their jobs report cancelled) and Shutdown returns ctx.Err()
// once the workers finish unwinding — the disk tier still flushes every
// queued write.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel() // abort in-flight simulations
		<-done
		err = ctx.Err()
	}
	s.store.Close()
	return err
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// newJobID returns a 16-hex-digit random id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // the platform CSPRNG failing is not recoverable
	}
	return hex.EncodeToString(b[:])
}

// submit admits a request that missed the result store. It returns the
// view of the job to poll — either a freshly queued one or an existing job
// for the same key (service-level singleflight) — or an admission error.
// The view is taken under the lock that admits the job, before any worker
// can see it, so a fresh job always reports queued.
var errQueueFull = errors.New("queue full")
var errDraining = errors.New("server draining")

func (s *Server) submit(req RunRequest, c spec.Spec, key string) (JobView, error) {
	if s.draining.Load() {
		return JobView{}, errDraining
	}
	s.mu.Lock()
	if j, ok := s.pending[key]; ok {
		view := j.view()
		s.mu.Unlock()
		return view, nil
	}
	j := &Job{
		ID:      newJobID(),
		Key:     key,
		Req:     req,
		Spec:    c,
		State:   StateQueued,
		Created: time.Now(),
		Total:   totalAccesses(c),
	}
	s.jobs[j.ID] = j
	s.pending[key] = j
	view := j.view()
	s.mu.Unlock()

	if !s.queue.TryEnqueue(j) {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		delete(s.pending, key)
		s.mu.Unlock()
		if s.draining.Load() {
			return JobView{}, errDraining
		}
		return JobView{}, errQueueFull
	}
	s.metrics.JobSubmitted()
	return view, nil
}

// job looks up a job by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// queuedCount counts jobs in state queued (for /metrics).
func (s *Server) queuedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State == StateQueued {
			n++
		}
	}
	return n
}

// worker consumes the queue until it closes and drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue.Chan() {
		s.runJob(j)
	}
}

// jobDeadline resolves a job's effective deadline.
func (s *Server) jobDeadline(j *Job) time.Duration {
	d := s.cfg.JobTimeout
	if j.Req.TimeoutMS > 0 {
		if rd := time.Duration(j.Req.TimeoutMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return d
}

// runJob simulates one job on the calling worker goroutine. Each job gets
// a fresh single-use suite: cross-job caching is the LRU store's business
// (it keeps small flattened results), so daemon memory never accumulates
// full simulated systems no matter how long it serves.
func (s *Server) runJob(j *Job) {
	if s.testHookJobStart != nil {
		s.testHookJobStart(j)
	}
	s.mu.Lock()
	j.State = StateRunning
	j.Started = time.Now()
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)

	ctx, cancel := context.WithTimeout(s.baseCtx, s.jobDeadline(j))
	defer cancel()

	var lastReported uint64
	suite := experiments.NewSuite(experiments.Options{
		Accesses:        j.Spec.Accesses,
		Warmup:          *j.Spec.Warmup,
		WarmupSet:       true,
		Seed:            j.Spec.Seed,
		Parallelism:     1,
		TraceCacheBytes: -1, // a job replays no other job's stream
		WarmCache:       s.warmCache,
		Progress: func(_ string, done uint64) {
			j.progress.Store(done)
			// One worker goroutine drives the whole job, so the delta
			// accounting needs no synchronization of its own.
			s.metrics.AddAccesses(done - lastReported)
			lastReported = done
		},
	})

	// j.Spec is canonical, so the suite memoizes it under exactly j.Key.
	run, err := suite.RunSpecContext(ctx, j.Spec)
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	s.finishJob(j, resultFrom(run, j.Spec, time.Since(j.Started)), nil)
}

// finishJob records a terminal state, publishes the result, and updates
// metrics. It keeps only the newest cfg.StoreCap finished jobs, so the job
// table stays bounded however long the daemon serves.
func (s *Server) finishJob(j *Job, res *RunResult, err error) {
	s.mu.Lock()
	j.Finished = time.Now()
	switch {
	case err == nil:
		j.State = StateCompleted
		j.Result = res
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.State = StateCancelled
		j.Error = fmt.Sprintf("cancelled: %v", err)
	default:
		j.State = StateFailed
		j.Error = err.Error()
	}
	delete(s.pending, j.Key)
	s.finished = append(s.finished, j.ID)
	if len(s.finished) > s.cfg.StoreCap {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()

	if err == nil {
		s.store.Put(j.Key, res)
		if j.Spec.Sampling > 1 {
			s.metrics.SampledRun()
		}
	}
	s.metrics.JobFinished(j.State, j.Finished.Sub(j.Started).Seconds())
	s.cfg.Log.Printf("job %s %s (%s) in %v", j.ID, j.State, j.Key, j.Finished.Sub(j.Started).Round(time.Millisecond))
}
