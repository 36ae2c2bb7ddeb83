package netsim

import (
	"context"
	"errors"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/rng"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// cancelAfter is uniform traffic that calls stop on its k-th packet,
// from inside the cycle loop: a cancellation that arrives at a known
// cycle, with no clock and no second goroutine needed to deliver it.
type cancelAfter struct {
	traffic.Uniform
	k    int
	stop func()
}

func (p *cancelAfter) Dest(r *rng.Source, src int) (int, bool) {
	if p.k--; p.k == 0 {
		p.stop()
	}
	return p.Uniform.Dest(r, src)
}

// tokenBalance reads the exec CPU-token budget by draining and
// refilling it; nothing else in this package's tests runs beside it.
func tokenBalance() int {
	n := exec.AcquireTokens(1 << 20)
	exec.ReleaseTokens(n)
	return n
}

// TestRunContextAborts: a run whose context is cancelled during cycle c
// stops before cycle c+1, hands back the error and nothing but the
// cycle count, and leaves the exec token budget as it found it — at
// one shard and on a sharded network whose crew holds tokens.
func TestRunContextAborts(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	for _, shards := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		before := tokenBalance()
		ctx, cancel := context.WithCancel(context.Background())
		var n *Network
		cancelledAt := int64(-1)
		pat := &cancelAfter{Uniform: traffic.Uniform{T: tp}, k: 500, stop: func() {
			cancelledAt = n.now
			cancel()
		}}
		n = New(tp, cfg, minRouter{tp}, pat, 0.3)
		res, err := n.RunContext(ctx, 1000, 1000, 1000)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: err = %v, want context.Canceled", shards, err)
		}
		if cancelledAt < 0 || res.Cycles != cancelledAt+1 {
			t.Fatalf("shards=%d: cancelled during cycle %d, run stopped at %d cycles, want %d",
				shards, cancelledAt, res.Cycles, cancelledAt+1)
		}
		if res != (RunResult{Cycles: res.Cycles}) {
			t.Fatalf("shards=%d: aborted run reported statistics: %+v", shards, res)
		}
		if after := tokenBalance(); after != before {
			t.Fatalf("shards=%d: exec token balance %d after the aborted run, %d before", shards, after, before)
		}
		// The network stopped on a cycle boundary with its books
		// balanced, and a context that was done from the start steps
		// nothing.
		if _, err := n.audit(); err != nil {
			t.Fatalf("shards=%d: audit after abort: %v", shards, err)
		}
		res, err = n.RunContext(ctx, 10, 10, 10)
		if !errors.Is(err, context.Canceled) || res.Cycles != cancelledAt+1 {
			t.Fatalf("shards=%d: run under a done context: %+v, %v", shards, res, err)
		}
	}
}

// TestRunContextCancelFromOutside cancels from a second goroutine, the
// way a saturation search does, with the shard crew forced wide so
// that `go test -race` sees the crew, the coordinator and the
// canceller together. The pattern signals the canceller once traffic
// flows, so the test waits on events only.
func TestRunContextCancelFromOutside(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := DefaultConfig()
	cfg.Shards, cfg.ShardWorkers = 4, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flowing := make(chan struct{})
	pat := &cancelAfter{Uniform: traffic.Uniform{T: tp}, k: 500, stop: func() { close(flowing) }}
	n := New(tp, cfg, minRouter{tp}, pat, 0.3)
	go func() {
		<-flowing
		cancel()
	}()
	// Windows no test could sit through: only the cancel ends this run.
	res, err := n.RunContext(ctx, 1<<40, 1, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cycles == 0 || res.Measured != 0 {
		t.Fatalf("aborted run: %+v", res)
	}
}

// TestRunContextNeverDoneIsRun: Run is RunContext under a context that
// is never done, so the two agree on every field.
func TestRunContextNeverDoneIsRun(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	mk := func() *Network {
		return New(tp, DefaultConfig(), minRouter{tp}, traffic.Uniform{T: tp}, 0.3)
	}
	want := mk().Run(300, 300, 600)
	got, err := mk().RunContext(context.Background(), 300, 300, 600)
	if err != nil || got != want {
		t.Fatalf("RunContext = %+v, %v\nRun = %+v", got, err, want)
	}
}
