package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/mining"
	"repro/internal/obsv"
)

// Job-lifecycle metrics (see /metricsz). They mirror the Manager's
// per-instance atomics, which /statsz still serves; the registry versions
// aggregate across every manager in the process.
const (
	mnJobsSubmitted = "service_jobs_submitted_total"
	mnJobsCompleted = "service_jobs_completed_total"
	mnJobsFailed    = "service_jobs_failed_total"
	mnJobsCanceled  = "service_jobs_canceled_total"
	mnJobsRejected  = "service_jobs_rejected_total"
	mnCacheServed   = "service_cache_served_total"
	mnJobsRunning   = "service_jobs_running"
	mnQueueWaitNS   = "service_queue_wait_ns"
	mnJobDurationNS = "service_job_duration_ns"
)

var (
	jobsSubmitted = obsv.Default.Counter(mnJobsSubmitted, "jobs accepted (queued or served from cache)")
	jobsCompleted = obsv.Default.Counter(mnJobsCompleted, "jobs finished successfully")
	jobsFailed    = obsv.Default.Counter(mnJobsFailed, "jobs finished with an error")
	jobsCanceled  = obsv.Default.Counter(mnJobsCanceled, "jobs canceled before or during execution")
	jobsRejected  = obsv.Default.Counter(mnJobsRejected, "submissions refused by queue backpressure")
	cacheServed   = obsv.Default.Counter(mnCacheServed, "jobs answered from the result cache without mining")
	jobsRunning   = obsv.Default.Gauge(mnJobsRunning, "jobs currently executing")
	queueWaitNS   = obsv.Default.Histogram(mnQueueWaitNS, "nanoseconds jobs spent queued before running", nil)
	jobDurationNS = obsv.Default.Histogram(mnJobDurationNS, "nanoseconds from job start to terminal state", nil)
)

// ErrQueueFull is returned by Submit when the bounded job queue has no
// free slot; HTTP maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("service: job queue full")

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = errors.New("service: shutting down")

// ErrUnknownJob is returned for job IDs the manager has never issued or
// has already forgotten (see maxFinishedJobs).
var ErrUnknownJob = errors.New("service: unknown job")

// maxFinishedJobs bounds the terminal jobs the manager remembers. Each
// finished job holds its full result, so an unbounded table grows with
// every job a long-lived daemon ever serves, cache hits included. Past
// the bound the oldest finished jobs are forgotten first (a later GET
// on one is ErrUnknownJob); queued and running jobs are never dropped,
// so the table holds at most this many plus Workers + QueueDepth jobs.
const maxFinishedJobs = 256

// RunFunc executes one job and returns its result. It must honor ctx:
// on cancellation it should return promptly with ctx.Err().
type RunFunc func(ctx context.Context, job *Job) (*mining.Result, *repro.RunInfo, error)

// ManagerConfig sizes the worker pool and queue.
type ManagerConfig struct {
	// Workers is the number of concurrent mining goroutines (default 1).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (default 16).
	// Submissions beyond Workers running + QueueDepth waiting fail with
	// ErrQueueFull.
	QueueDepth int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	return c
}

// Manager owns the job table, the bounded FIFO queue, and the worker
// pool. Status and results stay queryable after completion for the
// newest maxFinishedJobs finished jobs.
type Manager struct {
	cfg ManagerConfig
	run RunFunc

	mu       sync.Mutex
	jobs     map[string]*Job // every queryable job, by ID
	order    []string        // submission order, for List; may hold forgotten IDs
	active   map[string]*Job // the queued and running subset of jobs
	finished []string        // IDs of the terminal subset of jobs, oldest first
	queue    chan *Job
	closed   bool
	nextID   uint64

	wg sync.WaitGroup

	running   atomic.Int64
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	rejected  atomic.Int64
}

// NewManager starts cfg.Workers workers draining the queue through run.
func NewManager(cfg ManagerConfig, run RunFunc) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:    cfg,
		run:    run,
		jobs:   make(map[string]*Job),
		active: make(map[string]*Job),
		queue:  make(chan *Job, cfg.QueueDepth),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Submit enqueues a job for req with cache identity key. It fails with
// ErrQueueFull when the queue is at capacity and ErrShuttingDown after
// Shutdown.
func (m *Manager) Submit(req Request, key Key) (*Job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		Req:     req,
		Key:     key,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  StatusQueued,
		created: time.Now(),
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, ErrShuttingDown
	}
	m.nextID++
	j.ID = fmt.Sprintf("job-%d", m.nextID)
	select {
	case m.queue <- j:
		m.jobs[j.ID] = j
		m.active[j.ID] = j
		m.order = append(m.order, j.ID)
		m.mu.Unlock()
	default:
		m.mu.Unlock()
		cancel()
		m.rejected.Add(1)
		jobsRejected.Inc()
		return nil, ErrQueueFull
	}
	m.submitted.Add(1)
	jobsSubmitted.Inc()
	return j, nil
}

// Insert registers an already-terminal job (used for cache hits, which
// never pass through the queue) so it is queryable like any other job.
func (m *Manager) Insert(req Request, key Key, res *mining.Result, cached bool) *Job {
	now := time.Now()
	j := &Job{
		Req:      req,
		Key:      key,
		cancel:   func() {},
		done:     make(chan struct{}),
		status:   StatusDone,
		result:   res,
		cached:   cached,
		created:  now,
		started:  now,
		finished: now,
	}
	close(j.done)
	m.mu.Lock()
	m.nextID++
	j.ID = fmt.Sprintf("job-%d", m.nextID)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.finishLocked(j.ID)
	m.mu.Unlock()
	m.submitted.Add(1)
	m.completed.Add(1)
	jobsSubmitted.Inc()
	jobsCompleted.Inc()
	cacheServed.Inc()
	return j
}

// retire moves a job that has just reached a terminal status from the
// active set to the finished FIFO.
func (m *Manager) retire(j *Job) {
	m.mu.Lock()
	delete(m.active, j.ID)
	m.finishLocked(j.ID)
	m.mu.Unlock()
}

// finishLocked appends id to the finished FIFO and forgets the oldest
// finished jobs beyond maxFinishedJobs. Forgotten IDs linger in order
// until it is more than twice the table, then order is compacted — an
// amortized O(1) cost per job. Callers hold m.mu.
func (m *Manager) finishLocked(id string) {
	m.finished = append(m.finished, id)
	for len(m.finished) > maxFinishedJobs {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
	if len(m.order) > 2*len(m.jobs) {
		kept := m.order[:0]
		for _, id := range m.order {
			if _, ok := m.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		clear(m.order[len(kept):])
		m.order = kept
	}
}

// activeFor returns a snapshot of a queued or running job on dataset,
// or ok=false when there is none. It looks only at the active set, which
// Workers + QueueDepth bound, never at finished jobs.
func (m *Manager) activeFor(dataset string) (View, bool) {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.active))
	for _, j := range m.active {
		if j.Req.Dataset == dataset {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	for _, j := range jobs {
		if v := j.Snapshot(); !v.Status.Terminal() {
			return v, true
		}
	}
	return View{}, false
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// List returns snapshots of all queryable jobs in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]View, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot())
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].Created.Before(out[k].Created) })
	return out
}

// Cancel requests cancellation of a job. A queued job transitions to
// canceled immediately (the worker will skip it); a running job's
// context is canceled and the worker records the terminal state when the
// run function returns. Canceling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		j.cancel()
		m.retire(j)
		m.canceled.Add(1)
		jobsCanceled.Inc()
	case StatusRunning:
		j.mu.Unlock()
		j.cancel() // worker finishes the transition
	default:
		j.mu.Unlock()
	}
	return j, nil
}

// Wait blocks until the job reaches a terminal status or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (View, error) {
	j, err := m.Get(id)
	if err != nil {
		return View{}, err
	}
	select {
	case <-j.Done():
		return j.Snapshot(), nil
	case <-ctx.Done():
		return j.Snapshot(), ctx.Err()
	}
}

// QueueLen is the number of jobs waiting (not running).
func (m *Manager) QueueLen() int { return len(m.queue) }

// Shutdown stops accepting jobs, drains the queue and running jobs, and
// waits for the workers to exit. If ctx expires first, all outstanding
// jobs are canceled and Shutdown waits for the workers to observe the
// cancellation, then returns ctx.Err().
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue) // workers drain remaining jobs, then exit
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		jobs := make([]*Job, 0, len(m.active))
		for _, j := range m.active {
			jobs = append(jobs, j)
		}
		m.mu.Unlock()
		for _, j := range jobs {
			m.cancelIfPending(j)
		}
		<-done
		return ctx.Err()
	}
}

func (m *Manager) cancelIfPending(j *Job) {
	j.mu.Lock()
	if j.status == StatusQueued {
		j.status = StatusCanceled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		j.cancel()
		m.retire(j)
		m.canceled.Add(1)
		jobsCanceled.Inc()
		return
	}
	j.mu.Unlock()
	j.cancel()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *Job) {
	tr := obsv.NewTrace()
	j.mu.Lock()
	if j.status != StatusQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.trace = tr
	queueWaitNS.Observe(j.started.Sub(j.created).Nanoseconds())
	j.mu.Unlock()

	m.running.Add(1)
	jobsRunning.Add(1)
	defer func() {
		m.running.Add(-1)
		jobsRunning.Add(-1)
	}()

	res, info, err := m.run(obsv.WithTrace(j.ctx, tr), j)
	j.cancel() // release the context's resources

	j.mu.Lock()
	defer m.retire(j) // runs after the unlock below: never under j.mu
	defer func() {
		close(j.done)
		j.mu.Unlock()
	}()
	j.finished = time.Now()
	jobDurationNS.Observe(j.finished.Sub(j.started).Nanoseconds())
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = res
		j.info = info
		m.completed.Add(1)
		jobsCompleted.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCanceled
		j.err = err.Error()
		m.canceled.Add(1)
		jobsCanceled.Inc()
	default:
		j.status = StatusFailed
		j.err = err.Error()
		m.failed.Add(1)
		jobsFailed.Inc()
	}
}
