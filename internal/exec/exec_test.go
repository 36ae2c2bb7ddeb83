package exec

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		const n = 100
		var hits [n]atomic.Int64
		p.Run("all", n, func(i int) int64 {
			hits[i].Add(1)
			return 0
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

// TestRunRowsCoversEveryRowInFewTasks: every row runs once, whatever
// the row count relative to the worker bound (fewer rows than workers,
// a count the bound does not divide, none at all), and the observer
// sees one task per worker at most — not one per row.
func TestRunRowsCoversEveryRowInFewTasks(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 5, 100} {
			p := NewPool(workers)
			var tasks atomic.Int64
			p.SetObserver(func(Stat) { tasks.Add(1) })
			hits := make([]atomic.Int64, n)
			p.RunRows("rows", n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: row %d ran %d times", workers, n, i, got)
				}
			}
			if got, want := tasks.Load(), int64(min(workers, n)); got != want {
				t.Fatalf("workers=%d n=%d: %d tasks reported, want %d", workers, n, got, want)
			}
		}
	}
}

func TestOneWorkerPoolRunsInOrder(t *testing.T) {
	p := NewPool(1)
	var order []int
	p.Run("seq", 10, func(i int) int64 {
		order = append(order, i) // safe: strictly sequential
		return 0
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential pool ran out of order: %v", order)
		}
	}
}

func TestNestedRunDoesNotDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		var total atomic.Int64
		donech := make(chan struct{})
		go func() {
			defer close(donech)
			p.Run("outer", 4, func(int) int64 {
				p.Run("inner", 4, func(int) int64 {
					p.Run("innermost", 2, func(int) int64 {
						total.Add(1)
						return 0
					})
					return 0
				})
				return 0
			})
		}()
		select {
		case <-donech:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: nested Run deadlocked", workers)
		}
		if total.Load() != 4*4*2 {
			t.Fatalf("workers=%d: ran %d innermost tasks, want 32", workers, total.Load())
		}
	}
}

// TestFreedWorkerTakesNextTask: a goroutine that finishes a task
// claims the next index instead of leaving the slot idle. On a
// 2-worker pool task 0 holds its goroutine until task 1 has started and
// task 1 holds its own until task 2 has started. Static dispatch, which
// hands index 2 out only after the submitter's inline task 1 returns,
// deadlocks on this; the goroutine freed by task 0 must take task 2.
func TestFreedWorkerTakesNextTask(t *testing.T) {
	p := NewPool(2)
	started := [3]chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	donech := make(chan struct{})
	go func() {
		defer close(donech)
		p.Run("claim", 3, func(i int) int64 {
			close(started[i])
			if i < 2 {
				<-started[i+1]
			}
			return 0
		})
	}()
	select {
	case <-donech:
	case <-time.After(10 * time.Second):
		t.Fatal("task 2 never started: a freed worker did not take the next task")
	}
}

func TestObserverSeesEveryTask(t *testing.T) {
	p := NewPool(4)
	var events atomic.Int64
	var cycles atomic.Int64
	p.SetObserver(func(s Stat) {
		events.Add(1)
		cycles.Add(s.Cycles)
		if s.Label != "obs" {
			t.Errorf("label %q", s.Label)
		}
		if s.Done < 1 {
			t.Errorf("done %d", s.Done)
		}
	})
	p.Run("obs", 20, func(i int) int64 { return int64(i) })
	if events.Load() != 20 {
		t.Fatalf("observer saw %d events, want 20", events.Load())
	}
	if cycles.Load() != 19*20/2 {
		t.Fatalf("observer accumulated %d cycles, want %d", cycles.Load(), 19*20/2)
	}
	q, r, d := p.Snapshot()
	if q != 0 || r != 0 || d != 20 {
		t.Fatalf("snapshot after drain: queued=%d running=%d done=%d", q, r, d)
	}
}

func TestTaskPanicPropagatesToCaller(t *testing.T) {
	p := NewPool(4)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	p.Run("boom", 8, func(i int) int64 {
		if i == 3 {
			panic("task failure")
		}
		return 0
	})
}

func TestWorkersDefault(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Fatal("defaulted pool has no workers")
	}
	if NewPool(3).Workers() != 3 {
		t.Fatal("explicit worker count not honored")
	}
}

func TestSetDefaultSwaps(t *testing.T) {
	seq := NewPool(1)
	prev := SetDefault(seq)
	defer SetDefault(prev)
	if Default() != seq {
		t.Fatal("SetDefault did not install the pool")
	}
	if SetDefault(nil) != seq {
		t.Fatal("SetDefault(nil) did not return the previous pool")
	}
	if Default().Workers() < 1 {
		t.Fatal("SetDefault(nil) must restore a usable pool")
	}
	SetDefault(prev)
}

func TestCyclesPerSec(t *testing.T) {
	s := Stat{Cycles: 1000, Wall: time.Second}
	if got := s.CyclesPerSec(); got != 1000 {
		t.Fatalf("CyclesPerSec = %v", got)
	}
	if (Stat{Cycles: 0, Wall: time.Second}).CyclesPerSec() != 0 {
		t.Fatal("zero cycles must report 0")
	}
}
