// Package sched provides the process-wide worker pool behind every
// tick-parallel phase. Before it existed, each shard world spawned its
// own query-phase goroutines every tick, so a Shards × Workers
// configuration ran Shards × Workers transient goroutines against
// GOMAXPROCS cores — parallel, but oversubscribed and churning the
// scheduler. The pool fixes the goroutine population at GOMAXPROCS and
// hands tick work to whichever workers are idle; a fully busy pool
// degrades to inline execution on the caller, never to queuing delay.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of long-lived worker goroutines that execute
// parallel regions on demand. The zero value is not usable; call
// NewPool or Shared.
type Pool struct {
	tasks chan func()
	size  int
}

// NewPool starts a pool of `size` workers (size <= 0 means GOMAXPROCS).
// Pools are never stopped: they are process-lifetime infrastructure,
// and an idle worker costs one parked goroutine.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func()), size: size}
	for i := 0; i < size; i++ {
		go p.loop()
	}
	return p
}

func (p *Pool) loop() {
	for fn := range p.tasks {
		fn()
	}
}

// Size returns the number of pool workers.
func (p *Pool) Size() int { return p.size }

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide pool, sized to GOMAXPROCS at first
// use. Every world and shard runtime that is not given an explicit pool
// shares it, which is what keeps total tick parallelism bounded by the
// core count no matter how many shards × workers are configured.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = NewPool(0) })
	return shared
}

// Par runs fn(0), fn(1), … fn(n-1), distributing the calls across the
// caller and any currently idle pool workers, and returns when all have
// completed. Two properties make it safe to call from anywhere,
// including from inside a task already running on a pool worker:
//
//   - the caller always participates, so Par never waits for pool
//     capacity to begin making progress;
//   - the handoff to pool workers is non-blocking (an offer, not a
//     queue), so nested parallel regions — a shard tick whose world
//     fans its query phase — cannot deadlock on a saturated pool; they
//     just run more of their indices inline.
//
// Indices are claimed from a shared counter, so which goroutine runs
// which index is scheduling-dependent — callers needing determinism
// must make fn(i) depend only on i (the per-worker effect buffers are
// indexed this way).
func (p *Pool) Par(n int, fn func(i int)) { p.NewJob().Run(n, fn) }

// Job is a reusable parallel region: Run behaves exactly like Par, and a
// job kept across runs allocates nothing per run — what a tick phase that
// fans out every tick wants. A job runs one region at a time.
type Job struct {
	p    *Pool
	fn   func(i int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
	task func() // help, bound once so offering it allocates nothing
}

// NewJob returns a reusable region on p.
func (p *Pool) NewJob() *Job {
	j := &Job{p: p}
	j.task = j.help
	return j
}

// Run runs fn(0) … fn(n-1) as Par does.
func (j *Job) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	j.fn, j.n = fn, int64(n)
	j.next.Store(0)
	helpers := min(n-1, j.p.size)
offer:
	for i := 0; i < helpers; i++ {
		j.wg.Add(1)
		select {
		case j.p.tasks <- j.task:
		default:
			// No worker is idle right now; stop offering and let the
			// caller cover the rest inline.
			j.wg.Done()
			break offer
		}
	}
	j.work()
	j.wg.Wait()
	j.fn = nil
}

// help is the task a pool worker runs for the job.
func (j *Job) help() {
	defer j.wg.Done()
	j.work()
}

// work claims and runs indices until none is left.
func (j *Job) work() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.fn(int(i))
	}
}
