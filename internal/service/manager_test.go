package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/mining"
)

// instantRun completes immediately with an empty result.
func instantRun(ctx context.Context, j *Job) (*mining.Result, *repro.RunInfo, error) {
	return &mining.Result{MinSup: j.Key.MinSup}, nil, nil
}

// gatedRun blocks every run until release is closed (or ctx is
// canceled), making queue occupancy deterministic in tests.
func gatedRun(release <-chan struct{}) RunFunc {
	return func(ctx context.Context, j *Job) (*mining.Result, *repro.RunInfo, error) {
		select {
		case <-release:
			return &mining.Result{MinSup: j.Key.MinSup}, nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

func waitStatus(t *testing.T, m *Manager, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Snapshot().Status == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (stuck at %s)", id, want, j.Snapshot().Status)
}

func TestManagerRunsJobsToDone(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8}, instantRun)
	defer m.Shutdown(context.Background())
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := m.Submit(Request{Dataset: "d"}, Key{Dataset: "d", MinSup: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		v, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusDone {
			t.Fatalf("job %s: status %s, want done", id, v.Status)
		}
	}
	if got := m.List(); len(got) != 5 {
		t.Fatalf("List returned %d jobs, want 5", len(got))
	}
}

func TestManagerQueueFullAndFIFO(t *testing.T) {
	release := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1}, gatedRun(release))
	defer m.Shutdown(context.Background())

	j1, err := m.Submit(Request{Dataset: "d"}, Key{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, j1.ID, StatusRunning) // worker holds j1, queue is empty

	j2, err := m.Submit(Request{Dataset: "d"}, Key{MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Request{Dataset: "d"}, Key{MinSup: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}

	close(release)
	for _, id := range []string{j1.ID, j2.ID} {
		v, err := m.Wait(context.Background(), id)
		if err != nil || v.Status != StatusDone {
			t.Fatalf("job %s: %v %v", id, v.Status, err)
		}
	}
	if got := m.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

func TestManagerCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4}, gatedRun(release))
	// Release the gate before the deferred Shutdown drains the worker
	// (defers run LIFO).
	defer m.Shutdown(context.Background())
	defer close(release)

	j1, err := m.Submit(Request{Dataset: "d"}, Key{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, j1.ID, StatusRunning)

	j2, err := m.Submit(Request{Dataset: "d"}, Key{MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	v, err := m.Wait(context.Background(), j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCanceled {
		t.Fatalf("queued job after cancel: %s, want canceled", v.Status)
	}
	if !v.Started.IsZero() {
		t.Fatalf("canceled-while-queued job should never start, started=%v", v.Started)
	}
}

func TestManagerCancelRunningJob(t *testing.T) {
	never := make(chan struct{}) // only ctx cancellation can finish the run
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4}, gatedRun(never))
	j, err := m.Submit(Request{Dataset: "d"}, Key{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, j.ID, StatusRunning)
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	v, err := m.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCanceled {
		t.Fatalf("running job after cancel: %s, want canceled", v.Status)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestManagerCancelUnknownJob(t *testing.T) {
	m := NewManager(ManagerConfig{}, instantRun)
	defer m.Shutdown(context.Background())
	if _, err := m.Cancel("job-999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

func TestManagerShutdownDrainsQueuedJobs(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 8}, instantRun)
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := m.Submit(Request{Dataset: "d"}, Key{MinSup: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if s := j.Snapshot().Status; s != StatusDone {
			t.Fatalf("job %s after drain: %s, want done", id, s)
		}
	}
	if _, err := m.Submit(Request{Dataset: "d"}, Key{}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
}

func TestManagerShutdownTimeoutCancelsRunning(t *testing.T) {
	never := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4}, gatedRun(never))
	j1, _ := m.Submit(Request{Dataset: "d"}, Key{MinSup: 1})
	waitStatus(t, m, j1.ID, StatusRunning)
	j2, _ := m.Submit(Request{Dataset: "d"}, Key{MinSup: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if s := mustSnap(t, m, j1.ID).Status; s != StatusCanceled {
		t.Fatalf("running job after forced shutdown: %s, want canceled", s)
	}
	if s := mustSnap(t, m, j2.ID).Status; s != StatusCanceled {
		t.Fatalf("queued job after forced shutdown: %s, want canceled", s)
	}
}

func mustSnap(t *testing.T, m *Manager, id string) View {
	t.Helper()
	j, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return j.Snapshot()
}

// TestManagerConcurrentSubmitCancelGet hammers the manager from many
// goroutines; it exists to fail under -race if any lock is missing.
func TestManagerConcurrentSubmitCancelGet(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 4, QueueDepth: 64}, instantRun)
	defer m.Shutdown(context.Background())

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j, err := m.Submit(Request{Dataset: fmt.Sprintf("d%d", g)}, Key{MinSup: i + 1})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ids = append(ids, j.ID)
				mu.Unlock()
				if i%3 == 0 {
					m.Cancel(j.ID)
				}
				if i%2 == 0 {
					m.Get(j.ID)
					m.List()
				}
			}
		}(g)
	}
	wg.Wait()

	// More jobs than maxFinishedJobs may have been accepted. The manager
	// forgets only finished jobs, so an ID that is already unknown
	// reached a terminal status before it was dropped.
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids {
		for {
			j, err := m.Get(id)
			if errors.Is(err, ErrUnknownJob) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			s := j.Snapshot().Status
			if s.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never terminal (%s)", id, s)
			}
			time.Sleep(time.Millisecond)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.jobs) > maxFinishedJobs+len(m.active) {
		t.Fatalf("job table holds %d jobs, bound is %d finished + %d active", len(m.jobs), maxFinishedJobs, len(m.active))
	}
}
