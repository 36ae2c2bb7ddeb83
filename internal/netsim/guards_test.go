package netsim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"

	"tugal/internal/topo"
	"tugal/internal/traffic"
)

func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not mention %q", msg, substr)
		}
	}()
	fn()
}

// TestScheduleRejectsOutOfWheelDelay: every event is scheduled by
// emit, onto a wheel sized maxLat+2 at construction; a delay at or
// past the wheel length would wrap and deliver early. A latency raised
// after New must panic, not corrupt timing.
func TestScheduleRejectsOutOfWheelDelay(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	n := New(tp, DefaultConfig(), minRouter{tp}, traffic.Uniform{T: tp}, 0.1)
	sh := &n.shards[0]
	ev := event{r: 0, port: int8(tp.P), vc: 0}

	// In-range delays are fine.
	n.emit(sh, 0, ev)
	n.emit(sh, n.wheelLen-1, ev)

	mustPanic(t, "timing wheel", func() { n.emit(sh, n.wheelLen, ev) })
	mustPanic(t, "timing wheel", func() { n.emit(sh, -1, ev) })

	// The documented trap: raising a channel latency after New. The
	// simulator must fail loudly at the first emitted event.
	n2 := New(tp, DefaultConfig(), minRouter{tp}, traffic.Uniform{T: tp}, 0.3)
	for j := range n2.outLat {
		n2.outLat[j] = int16(n2.wheelLen) // beyond the wheel
	}
	mustPanic(t, "timing wheel", func() {
		for i := 0; i < 5000; i++ {
			n2.step()
		}
	})
}

// TestRunRejectsNonPositiveMeasure: OfferedLoad/Throughput divide by
// the measurement window, so measure <= 0 must panic instead of
// returning NaN rates.
func TestRunRejectsNonPositiveMeasure(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	for _, measure := range []int64{0, -5} {
		n := New(tp, DefaultConfig(), minRouter{tp}, traffic.Uniform{T: tp}, 0.1)
		mustPanic(t, "measure > 0", func() { n.Run(100, measure, 100) })
	}
}

// TestShardSeedBytesMatchesReserve: the budget check of
// seedShardBuffers prices exactly the bytes it then reserves.
func TestShardSeedBytesMatchesReserve(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	cfg := DefaultConfig()
	cfg.Shards = 4
	n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0.1)
	for s := range n.shards {
		sh := &n.shards[s]
		reserved := 0
		for i := range sh.wheel {
			reserved += cap(sh.wheel[i])*int(unsafe.Sizeof(event{})) + cap(sh.cwheel[i])*4
		}
		for i := range sh.outbox {
			reserved += cap(sh.outbox[i])*int(unsafe.Sizeof(outEvent{})) + cap(sh.coutbox[i])*8
		}
		if est := n.shardSeedBytes(sh, len(n.shards)); est != reserved || est == 0 {
			t.Fatalf("shard %d: estimate %d B, reserved %d B", s, est, reserved)
		}
	}
}

// TestConfigCheck: Check names the field of every config New refuses,
// New panics with exactly that error, and the bounds themselves are
// accepted — a MaxLatency channel builds its wheel and runs.
func TestConfigCheck(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	wide := topo.MustNew(1, 64, 64, 2) // radix 128
	other := topo.NewFailureMask(topo.MustNew(2, 4, 2, 9))
	set := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	for _, c := range []struct {
		field string
		t     *topo.Compiled
		cfg   Config
		rate  float64
	}{
		{"rate", tp, DefaultConfig(), 1.5},
		{"rate", tp, DefaultConfig(), -0.1},
		{"rate", tp, DefaultConfig(), math.NaN()},
		{"NumVCs", tp, set(func(c *Config) { c.NumVCs = 0 }), 0.1},
		{"NumVCs", tp, set(func(c *Config) { c.NumVCs = 17 }), 0.1},
		{"BufSize", tp, set(func(c *Config) { c.BufSize = 0 }), 0.1},
		{"BufSize", tp, set(func(c *Config) { c.BufSize = 129 }), 0.1},
		{"SpeedUp", tp, set(func(c *Config) { c.SpeedUp = 0 }), 0.1},
		{"LocalLatency", tp, set(func(c *Config) { c.LocalLatency = -1 }), 0.1},
		{"LocalLatency", tp, set(func(c *Config) { c.LocalLatency = 2000000000 }), 0.1},
		{"GlobalLatency", tp, set(func(c *Config) { c.GlobalLatency = MaxLatency + 1 }), 0.1},
		{"topology", wide, DefaultConfig(), 0.1},
		{"Failures", tp, set(func(c *Config) { c.Failures = other }), 0.1},
	} {
		err := c.cfg.Check(c.t, c.rate)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field {
			t.Errorf("%+v at rate %v: error %v, want a ConfigError on %s", c.cfg, c.rate, err, c.field)
			continue
		}
		func() {
			defer func() {
				if r, ok := recover().(error); !ok || r.Error() != err.Error() {
					t.Errorf("New panicked with %v, Check returned %v", r, err)
				}
			}()
			New(c.t, c.cfg, minRouter{c.t}, traffic.Uniform{T: c.t}, c.rate)
		}()
	}
	atBounds := Config{NumVCs: 16, BufSize: 128, SpeedUp: 1, LocalLatency: MaxLatency, GlobalLatency: 0}
	if err := atBounds.Check(tp, 1); err != nil {
		t.Fatalf("refused a config at the bounds: %v", err)
	}
	long := DefaultConfig()
	long.LocalLatency = MaxLatency
	res := New(tp, long, minRouter{tp}, traffic.Uniform{T: tp}, 0.1).Run(0, 2*MaxLatency, 2*MaxLatency)
	if res.Measured == 0 || res.AvgLatency < MaxLatency/2 {
		t.Fatalf("MaxLatency local channels: %d packets measured, latency %v", res.Measured, res.AvgLatency)
	}
}
