package netsim

import (
	"math"
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// minRouter is a tiny test routing function: always the first MIN
// path, VC by phase (source-local 0, global 0, dest-local 1).
type minRouter struct {
	t *topo.Compiled
}

func (m minRouter) Name() string { return "test-min" }

// word returns the route word of the switch hops from node src's
// switch to node dst's.
func (m minRouter) word(src, dst int32) uint64 {
	t := m.t
	s := t.SwitchOfNode(int(src))
	d := t.SwitchOfNode(int(dst))
	var hops []RouteHop
	if s != d {
		if t.SameGroup(s, d) {
			hops = append(hops, RouteHop{Port: int8(t.LocalPort(s, d)), VC: 0})
		} else {
			l := t.LinksBetweenGroups(t.GroupOf(s), t.GroupOf(d))[0]
			u, v := int(l.From), int(l.To)
			if u != s {
				hops = append(hops, RouteHop{Port: int8(t.LocalPort(s, u)), VC: 0})
			}
			hops = append(hops, RouteHop{Port: int8(t.GlobalPort(int(l.FromPort))), VC: 0})
			if v != d {
				hops = append(hops, RouteHop{Port: int8(t.LocalPort(v, d)), VC: 1})
			}
		}
	}
	w, _ := PackWord(hops)
	return w
}

func (m minRouter) SourceRoute(n *Network, r *rng.Source, f *Flit) bool {
	f.Word = m.word(f.Src, f.Dst)
	f.MinRouted = true
	return true
}

func (m minRouter) Revise(*Network, *rng.Source, *Flit, int32) {}

// minRouter never sets Revisable, so it may step sharded.
func (m minRouter) RevisesInFlight() bool { return false }

// minRouter keeps no per-packet state, so it is its own clone.
func (m minRouter) CloneRouting() RoutingFunc { return m }

func TestConservation(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := DefaultConfig()
	n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0.3)
	for i := 0; i < 5000; i++ {
		n.step()
		if i%500 == 0 {
			if _, err := n.audit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := n.audit(); err != nil {
		t.Fatal(err)
	}
	if n.delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestZeroLoadLatency(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := DefaultConfig()
	// Adversarial inter-group pattern at trivial load: the typical
	// MIN path is local+global+local = 10+15+10 = 35 cycles; with
	// shorter variants the mean must sit in (15, 36).
	n := New(tp, cfg, minRouter{tp}, traffic.Shift{T: tp, DG: 1, DS: 0}, 0.01)
	res := n.Run(500, 2000, 2000)
	if res.Saturated {
		t.Fatal("saturated at 1% load")
	}
	if res.AvgLatency <= 15 || res.AvgLatency >= 36 {
		t.Fatalf("zero-load latency %.1f outside (15, 36)", res.AvgLatency)
	}
	if math.Abs(res.Throughput-res.OfferedLoad) > 0.005 {
		t.Fatalf("throughput %.4f != offered %.4f at low load", res.Throughput, res.OfferedLoad)
	}
}

func TestUniformHighLoadDelivers(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := DefaultConfig()
	n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0.5)
	res := n.Run(2000, 1500, 3000)
	// MIN on UR should sustain 50% injection comfortably.
	if res.Saturated {
		t.Fatalf("MIN on UR saturated at 0.5: lat=%v", res.AvgLatency)
	}
	if res.Throughput < 0.45 {
		t.Fatalf("throughput %.3f too low", res.Throughput)
	}
}

func TestDeterminism(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := DefaultConfig()
	cfg.Seed = 77
	run := func() RunResult {
		n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0.2)
		return n.Run(1000, 1000, 2000)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 78
	c := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0.2).Run(1000, 1000, 2000)
	if a == c {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestCreditOccConsistency(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := DefaultConfig()
	n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0.4)
	for i := 0; i < 3000; i++ {
		n.step()
	}
	// Credit-implied occupancy must never exceed the buffer budget
	// or go negative.
	budget := cfg.NumVCs * cfg.BufSize
	for sw := 0; sw < tp.NumSwitches(); sw++ {
		for pt := tp.P; pt < tp.Radix(); pt++ {
			occ := n.CreditOcc(int32(sw), pt)
			if occ < 0 || occ > budget {
				t.Fatalf("switch %d port %d credit occupancy %d outside [0,%d]", sw, pt, occ, budget)
			}
		}
	}
}

func TestDownstreamOccMatchesBuffers(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := DefaultConfig()
	n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0.4)
	for i := 0; i < 2000; i++ {
		n.step()
	}
	total := 0
	for sw := 0; sw < tp.NumSwitches(); sw++ {
		for pt := tp.P; pt < tp.Radix(); pt++ {
			total += n.DownstreamOcc(int32(sw), pt)
		}
	}
	// Sum of downstream occupancies equals all switch-to-switch
	// buffered flits (terminal-port buffers excluded).
	var buffered int
	for sw := 0; sw < tp.NumSwitches(); sw++ {
		for pt := tp.P; pt < tp.Radix(); pt++ {
			buffered += int(n.inOcc[sw*tp.Radix()+pt])
		}
	}
	if total != buffered {
		t.Fatalf("downstream occupancy sum %d != buffered %d", total, buffered)
	}
}

func TestMeasurementWindowAccounting(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	cfg := DefaultConfig()
	n := New(tp, cfg, minRouter{tp}, traffic.Uniform{T: tp}, 0.1)
	res := n.Run(1000, 2000, 3000)
	if res.Measured == 0 {
		t.Fatal("no measured packets")
	}
	if res.Undelivered != 0 {
		t.Fatalf("%d measured packets undelivered at 10%% load", res.Undelivered)
	}
	// Offered load should track the configured rate.
	if math.Abs(res.OfferedLoad-0.1) > 0.02 {
		t.Fatalf("offered load %.3f want ~0.1", res.OfferedLoad)
	}
}

func TestBufferBoundsRespected(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 3)
	cfg := DefaultConfig()
	cfg.BufSize = 4
	n := New(tp, cfg, minRouter{tp}, traffic.Shift{T: tp, DG: 1, DS: 0}, 0.9)
	for i := 0; i < 4000; i++ {
		n.step()
		if i%250 != 0 {
			continue
		}
		for sw := 0; sw < tp.NumSwitches(); sw++ {
			for pt := 0; pt < tp.Radix(); pt++ {
				for vc := 0; vc < cfg.NumVCs; vc++ {
					if l := n.queueLen(sw, pt, vc); l > cfg.BufSize {
						t.Fatalf("buffer overflow: switch %d port %d vc %d len %d > %d",
							sw, pt, vc, l, cfg.BufSize)
					}
				}
			}
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 3)
	for _, f := range []func(){
		func() { New(tp, Config{}, minRouter{tp}, traffic.Uniform{T: tp}, 0.1) },
		func() { New(tp, DefaultConfig(), minRouter{tp}, traffic.Uniform{T: tp}, 1.5) },
		func() { New(tp, DefaultConfig(), minRouter{tp}, traffic.Uniform{T: tp}, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
