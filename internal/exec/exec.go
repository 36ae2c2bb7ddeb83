// Package exec is the shared execution engine behind every
// independent-simulation fan-out in the repository: the per-seed loop
// of sweep.RunPointOn, the load points of sweep.LatencyCurve, the
// bracket probes of sweep.Saturation, the per-scheme curves of
// internal/figures, Step-2 candidate evaluation in internal/core and
// the suite entries of cmd/experiment all schedule onto one bounded
// worker pool. Scheduled is not the same as executed: a task decides
// for itself whether its work is still wanted when its turn comes (a
// bracket probe above a rate already known to saturate returns at
// once), and Run's order — ascending claims from one counter, inline
// when no worker is free — is part of what such tasks rely on.
//
// The engine never decides *what* a task computes — callers derive
// every seed from their master seed exactly as the sequential code
// did and write results into caller-owned slices by index — so the
// output of any fan-out is bit-identical to its sequential execution
// regardless of worker count or completion order. A Pool with one
// worker runs everything inline on the calling goroutine, which is
// the reference point the determinism tests and the parallel-speedup
// benchmark compare against.
//
// Run may be called from inside a task (sweep.LatencyCurve schedules
// load points whose RunPointOn schedules seeds). Nesting cannot
// deadlock: when no worker slot is free the submitting goroutine
// executes the tasks it claims itself, so a caller blocked in Run
// always makes progress through its own work list.
package exec

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stat describes one completed task, delivered to the pool's
// observer. Queued/Running/Done are a point-in-time snapshot of the
// pool taken just after the task finished.
type Stat struct {
	// Label names the task group the submitter chose (e.g.
	// "fig6/UGAL-L" or "point@0.15").
	Label string
	// Index is the task's index within its Run call.
	Index int
	// Wall is the task's wall-clock execution time.
	Wall time.Duration
	// Cycles is the task's self-reported work measure — simulated
	// cycles for simulation tasks, 0 when not applicable. Divide by
	// Wall for simulated cycles/sec.
	Cycles int64
	// Bytes is the task's self-reported resident footprint — the
	// size of a compiled path store for compile tasks, 0 when not
	// applicable.
	Bytes int64
	// Shards and ShardWorkers describe intra-run parallelism for
	// simulation tasks that stepped a sharded network: the shard
	// count and the workers that stepped them (both 0 when not
	// applicable, e.g. a sequential simulation or a compile task).
	Shards, ShardWorkers int
	// Queued counts submitted tasks not yet executing, Running the
	// tasks currently executing, Done the tasks completed over the
	// pool's lifetime.
	Queued, Running, Done int64
}

// CyclesPerSec returns the task's simulated-cycle rate (0 when the
// task reported no cycles or finished too fast to time).
func (s Stat) CyclesPerSec() float64 {
	if s.Cycles == 0 || s.Wall <= 0 {
		return 0
	}
	return float64(s.Cycles) / s.Wall.Seconds()
}

// Observer receives a Stat after each task completes. It is called
// concurrently from worker goroutines and must be safe for concurrent
// use.
type Observer func(Stat)

// Pool is a bounded worker pool for independent simulation runs.
type Pool struct {
	workers int
	sem     chan struct{}

	queued  atomic.Int64
	running atomic.Int64
	done    atomic.Int64

	mu  sync.RWMutex
	obs Observer
}

// NewPool builds a pool executing at most workers tasks at once;
// workers < 1 selects GOMAXPROCS. A one-worker pool runs every task
// inline on the submitting goroutine (strictly sequential).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		// The submitting goroutine is itself a worker (it runs tasks
		// inline when no slot is free), so the semaphore holds
		// workers-1 spawn slots.
		sem: make(chan struct{}, workers-1),
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// SetObserver installs the completion observer (nil disables).
func (p *Pool) SetObserver(obs Observer) {
	p.mu.Lock()
	p.obs = obs
	p.mu.Unlock()
}

// Snapshot returns the pool's current queued/running/done counters.
func (p *Pool) Snapshot() (queued, running, done int64) {
	return p.queued.Load(), p.running.Load(), p.done.Load()
}

// Report delivers a caller-built Stat to the pool observer without
// touching the task counters (the snapshot fields are filled in).
// Consumers use it for one-off work done outside Run — e.g. spec and
// figures report each path-store compilation's build time and store
// bytes here, so -progress output accounts for setup cost too.
func (p *Pool) Report(s Stat) {
	p.mu.RLock()
	obs := p.obs
	p.mu.RUnlock()
	if obs == nil {
		return
	}
	s.Queued, s.Running, s.Done = p.Snapshot()
	obs(s)
}

// Task is one unit of independent work. The return value is the
// task's work measure (simulated cycles; return 0 when meaningless),
// reported to the pool observer.
type Task func(i int) int64

// Run executes tasks 0..n-1 and blocks until all complete. Indices are
// claimed from one counter, so tasks start in ascending order, by the
// calling goroutine and by the helpers it spawns into free worker
// slots; a goroutine that finishes a task claims the next index, and a
// helper exits (freeing its slot) only when none is left. With no slot
// free the caller runs what it claims inline, which both bounds memory
// and makes nested Run calls deadlock-free, and means a submitter that
// finds the pool busy runs its tasks one after another in index order.
// A panic in any task is re-raised on the calling goroutine after the
// remaining tasks finish.
func (p *Pool) Run(label string, n int, task Task) {
	if n <= 0 {
		return
	}
	p.queued.Add(int64(n))
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	exec := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
			}
		}()
		p.queued.Add(-1)
		p.running.Add(1)
		// The task's goroutine occupies one CPU for its duration;
		// debit the shared token budget so intra-run parallelism
		// (netsim's shard engine) sizes itself off what's left. The
		// credit is deferred: a panicking task must not leak its
		// token (the budget outlives this pool).
		cpuTokens.Add(-1)
		defer cpuTokens.Add(1)
		start := time.Now()
		cycles := task(i)
		wall := time.Since(start)
		p.running.Add(-1)
		done := p.done.Add(1)
		p.mu.RLock()
		obs := p.obs
		p.mu.RUnlock()
		if obs != nil {
			obs(Stat{Label: label, Index: i, Wall: wall, Cycles: cycles,
				Queued: p.queued.Load(), Running: p.running.Load(), Done: done})
		}
	}
	// work runs claimed indices until none is left; while one is still
	// unclaimed it first spawns a helper, running work too, into a free slot.
	var next atomic.Int64
	var work func()
	work = func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if next.Load() < int64(n) {
				select {
				case p.sem <- struct{}{}:
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() { <-p.sem }()
						work()
					}()
				default:
				}
			}
			exec(i)
		}
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// RunRows calls row for every row 0..n-1 of one data-parallel build,
// as at most Workers() tasks of a Run call, each a contiguous range of
// rows. One task per worker rather than one per row keeps the observer
// to a line per worker and the Done counter a count of work items, not
// of loop iterations. A row that writes only what it owns produces the
// same result at any worker bound.
func (p *Pool) RunRows(label string, n int, row func(i int)) {
	p.RunRanges(label, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row(i)
		}
	})
}

// RunRanges is RunRows handing each task its range of rows [lo, hi)
// whole, so that a task can keep scratch across its rows.
func (p *Pool) RunRanges(label string, n int, rows func(lo, hi int)) {
	chunks := min(p.workers, n)
	p.Run(label, chunks, func(c int) int64 {
		rows(c*n/chunks, (c+1)*n/chunks)
		return 0
	})
}

// cpuTokens is the process-wide CPU budget shared by the worker pool
// and netsim's shard engine, initialized to GOMAXPROCS. Every pool
// task holds one token implicitly while running (debited around the
// task body), so a sharded simulation inside a saturated fan-out sees
// an empty budget and steps single-threaded, while the same
// simulation on an idle machine acquires workers up to the core
// count. The budget is advisory: the balance may go briefly negative
// when the pool runs excess tasks inline on the submitting goroutine
// (those share a CPU with their submitter but still debit one), which
// errs toward fewer shard workers, never more.
var cpuTokens atomic.Int64

// AcquireTokens takes up to want tokens from the shared CPU budget
// and returns how many were obtained (0 when the budget is exhausted;
// never more than want). Callers must return them via ReleaseTokens.
func AcquireTokens(want int) int {
	if want <= 0 {
		return 0
	}
	for {
		cur := cpuTokens.Load()
		if cur <= 0 {
			return 0
		}
		g := int64(want)
		if g > cur {
			g = cur
		}
		if cpuTokens.CompareAndSwap(cur, cur-g) {
			return int(g)
		}
	}
}

// ReleaseTokens returns tokens acquired with AcquireTokens.
func ReleaseTokens(n int) {
	if n > 0 {
		cpuTokens.Add(int64(n))
	}
}

// Progress returns an Observer that writes one line per completed
// task to w — label, wall time, simulated-cycle rate and the pool's
// queued/running/done counters. The write is a single call, so lines
// from concurrent workers do not interleave mid-line. Used by the
// -progress flag of cmd/experiment and cmd/figures.
func Progress(w io.Writer) Observer {
	return func(s Stat) {
		rate := ""
		if c := s.CyclesPerSec(); c > 0 {
			rate = fmt.Sprintf(" %.0f kcyc/s", c/1e3)
		}
		if s.Bytes > 0 {
			rate += fmt.Sprintf(" %.1f MiB", float64(s.Bytes)/(1<<20))
		}
		if s.Shards > 1 {
			rate += fmt.Sprintf(" %d shards/%d workers", s.Shards, s.ShardWorkers)
		}
		fmt.Fprintf(w, "[%d done, %d running, %d queued] %s#%d %v%s\n",
			s.Done, s.Running, s.Queued, s.Label, s.Index,
			s.Wall.Round(time.Millisecond), rate)
	}
}

// defaultPool is the process-wide pool shared by sweep, figures, core
// and spec; sized to GOMAXPROCS unless replaced.
var defaultPool atomic.Pointer[Pool]

func init() {
	cpuTokens.Store(int64(runtime.GOMAXPROCS(0)))
	defaultPool.Store(NewPool(0))
}

// Default returns the shared pool.
func Default() *Pool { return defaultPool.Load() }

// SetDefault replaces the shared pool (e.g. cmd binaries honoring a
// -workers flag, or benchmarks forcing a sequential baseline) and
// returns the previous one. Swapping while runs are in flight is
// safe: in-flight Run calls keep using the pool they started on.
func SetDefault(p *Pool) *Pool {
	if p == nil {
		p = NewPool(0)
	}
	return defaultPool.Swap(p)
}
