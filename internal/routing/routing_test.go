package routing

import (
	"math/bits"
	"testing"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

func mkNet(t *topo.Compiled, rf netsim.RoutingFunc, vcs int) *netsim.Network {
	cfg := netsim.DefaultConfig()
	cfg.NumVCs = vcs
	return netsim.New(t, cfg, rf, traffic.Uniform{T: t}, 0.0)
}

// rank orders (channel kind, VC class) pairs for the PhaseVC
// deadlock argument: l_0..l_{sb-1} < g_0 < l_inter1 < l_inter2 < g_1
// < l_dst. A route is deadlock-safe if its ranks strictly increase.
func rank(kind topo.PortKind, vc, sb int) int {
	if kind == topo.Global {
		if vc == 0 {
			return sb
		}
		return sb + 3
	}
	switch {
	case vc < sb:
		return vc
	case vc == sb:
		return sb + 1
	case vc == sb+1:
		return sb + 2
	default:
		return sb + 4
	}
}

// hopsOf decodes a route word.
func hopsOf(w uint64) []netsim.RouteHop {
	hops := make([]netsim.RouteHop, netsim.WordHops(w))
	for i := range hops {
		hops[i].Port, hops[i].VC = netsim.WordHop(w, i)
	}
	return hops
}

// checkHops validates switch hops from switch sw that follow hops of
// rank prevRank: adjacency, VC budget, strictly increasing rank under
// PhaseVC, and arrival at switch dst.
func checkHops(t *testing.T, tp *topo.Compiled, sw, dst int, hops []netsim.RouteHop, prevRank, numVCs, sb int) {
	t.Helper()
	for _, hop := range hops {
		if int(hop.VC) >= numVCs {
			t.Fatalf("vc %d exceeds budget %d", hop.VC, numVCs)
		}
		kind := tp.KindOfPort(int(hop.Port))
		if kind == topo.Terminal {
			t.Fatalf("terminal port mid-route")
		}
		r := rank(kind, int(hop.VC), sb)
		if r <= prevRank {
			t.Fatalf("rank not increasing: route %v (rank %d after %d)", hops, r, prevRank)
		}
		prevRank = r
		sw = tp.PeerOfPort(sw, int(hop.Port))
	}
	if sw != dst {
		t.Fatalf("route %v ends at switch %d, destination switch is %d", hops, sw, dst)
	}
}

// checkRoute validates a source-routed packet's word with checkHops.
func checkRoute(t *testing.T, tp *topo.Compiled, f *netsim.Flit, numVCs, sb int) {
	t.Helper()
	checkHops(t, tp, tp.SwitchOfNode(int(f.Src)), tp.SwitchOfNode(int(f.Dst)), hopsOf(f.Word), -1, numVCs, sb)
}

func TestSourceRouteValidity(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	r := rng.New(5)
	for _, tc := range []struct {
		rf  *UGAL
		vcs int
	}{
		{NewUGALL(tp, paths.Full{T: tp}), 4},
		{NewUGALG(tp, paths.Full{T: tp}), 4},
		{NewPAR(tp, paths.Full{T: tp}), 5},
		{NewPiggyback(tp, paths.Full{T: tp}), 4},
		{NewUGALL(tp, paths.Strategic{T: tp, FirstLeg: 2}), 4},
		{NewMin(tp), 4},
		{NewVLB(tp, paths.Full{T: tp}), 4},
	} {
		n := mkNet(tp, tc.rf, tc.vcs)
		sb := tc.rf.srcBudget()
		for i := 0; i < 400; i++ {
			src := r.Intn(tp.NumNodes())
			dst := r.Intn(tp.NumNodes())
			if src == dst {
				continue
			}
			f := &netsim.Flit{Src: int32(src), Dst: int32(dst)}
			if !tc.rf.SourceRoute(n, r, f) {
				t.Fatalf("%s refused %d -> %d on a pristine network", tc.rf.Name(), src, dst)
			}
			checkRoute(t, tp, f, tc.vcs, sb)
		}
	}
}

func TestNames(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	full := paths.Full{T: tp}
	cust := paths.Strategic{T: tp, FirstLeg: 2}
	cases := map[string]netsim.RoutingFunc{
		"UGAL-L":    NewUGALL(tp, full),
		"UGAL-G":    NewUGALG(tp, full),
		"PAR":       NewPAR(tp, full),
		"UGAL-PB":   NewPiggyback(tp, full),
		"T-UGAL-L":  NewUGALL(tp, cust),
		"T-UGAL-G":  NewUGALG(tp, cust),
		"T-PAR":     NewPAR(tp, cust),
		"T-UGAL-PB": NewPiggyback(tp, cust),
		"MIN":       NewMin(tp),
	}
	for want, rf := range cases {
		if rf.Name() != want {
			t.Errorf("Name() = %q want %q", rf.Name(), want)
		}
	}
}

func TestMinOnlyNeverVLB(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	rf := NewMin(tp)
	n := mkNet(tp, rf, 4)
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		f := &netsim.Flit{Src: 0, Dst: int32(10 + r.Intn(tp.NumNodes()-10))}
		rf.SourceRoute(n, r, f)
		if !f.MinRouted {
			t.Fatal("MIN routing marked non-minimal")
		}
		// MIN path has at most 3 switch hops.
		if netsim.WordHops(f.Word) > 3 {
			t.Fatalf("MIN route too long: %v", hopsOf(f.Word))
		}
	}
}

func TestUGALPrefersMinWhenIdle(t *testing.T) {
	// With all queues empty and T=0, q_min <= q_vlb + 0 holds, so
	// UGAL must choose MIN.
	tp := topo.MustNew(2, 4, 2, 9)
	rf := NewUGALL(tp, paths.Full{T: tp})
	n := mkNet(tp, rf, 4)
	r := rng.New(2)
	for i := 0; i < 100; i++ {
		f := &netsim.Flit{Src: 0, Dst: int32(tp.NumNodes() - 1 - i%8)}
		rf.SourceRoute(n, r, f)
		if !f.MinRouted {
			t.Fatal("UGAL-L chose VLB on an idle network")
		}
	}
}

func TestVLBOnlyUsesPolicy(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	pol := paths.LengthCapped{T: tp, MaxHops: 4, Seed: 3}
	rf := NewVLB(tp, pol)
	n := mkNet(tp, rf, 4)
	r := rng.New(3)
	for i := 0; i < 200; i++ {
		f := &netsim.Flit{Src: 0, Dst: int32(tp.NumNodes() - 1)}
		rf.SourceRoute(n, r, f)
		if f.MinRouted {
			t.Fatal("VLB-only chose MIN")
		}
		if netsim.WordHops(f.Word) > 4 {
			t.Fatalf("VLB route exceeds policy cap: %v", hopsOf(f.Word))
		}
	}
}

func TestPARMarksRevisable(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	rf := NewPAR(tp, paths.Full{T: tp})
	n := mkNet(tp, rf, 5)
	r := rng.New(4)
	sawRevisable := false
	for i := 0; i < 500 && !sawRevisable; i++ {
		src := r.Intn(tp.NumNodes())
		dst := r.Intn(tp.NumNodes())
		if src == dst || tp.GroupOfNode(src) == tp.GroupOfNode(dst) {
			continue
		}
		f := &netsim.Flit{Src: int32(src), Dst: int32(dst)}
		rf.SourceRoute(n, r, f)
		if f.Revisable {
			sawRevisable = true
			if !f.MinRouted {
				t.Fatal("revisable flit not MIN-routed")
			}
			if p, _ := netsim.WordHop(f.Word, 0); tp.KindOfPort(int(p)) != topo.Local {
				t.Fatal("revisable flit does not start with a local hop")
			}
		}
	}
	if !sawRevisable {
		t.Fatal("PAR never marked a flit revisable")
	}
}

// TestPARReviseRewritesRoute diverts revisable PAR packets at their
// gateway: with a threshold no queue difference can meet, Revise must
// replace the MIN hops left with a VLB word from the gateway whose VCs
// continue the taken local hop's rank, and end at the destination; and
// a saturated run must still route packets non-minimally.
func TestPARReviseRewritesRoute(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	rf := NewPAR(tp, paths.Full{T: tp})
	n := mkNet(tp, rf, 5)
	r := rng.New(8)
	diverted := 0
	for i := 0; i < 400; i++ {
		src, dst := r.Intn(tp.NumNodes()), r.Intn(tp.NumNodes())
		f := &netsim.Flit{Src: int32(src), Dst: int32(dst)}
		rf.Threshold = 0
		if !rf.SourceRoute(n, r, f) || !f.Revisable {
			continue
		}
		hops := hopsOf(f.Word)
		gw := tp.PeerOfPort(tp.SwitchOfNode(src), int(hops[0].Port))
		f.Word, _ = netsim.PackWord(hops[1:])
		rf.Threshold = -1 << 20
		rf.Revise(n, r, f, int32(gw))
		if f.MinRouted {
			t.Fatalf("%d -> %d: not diverted under threshold %d", src, dst, rf.Threshold)
		}
		// The taken hop is a source-group local on VC 0: rank 0.
		checkHops(t, tp, gw, tp.SwitchOfNode(dst), hopsOf(f.Word), 0, 5, 2)
		diverted++
	}
	if diverted == 0 {
		t.Fatal("no revisable packet among 400")
	}

	cfg := netsim.DefaultConfig()
	cfg.NumVCs = 5
	// Saturating adversarial load makes non-minimal routing likely.
	rf.Threshold = 0
	res := netsim.New(tp, cfg, rf, traffic.Shift{T: tp, DG: 1, DS: 0}, 0.5).Run(1500, 1000, 1500)
	if res.VLBFraction == 0 {
		t.Fatal("PAR never routed non-minimally under saturating adversarial load")
	}
}

// shapes returns the route shapes (see Stamps) of every MIN path —
// one local hop, or [l] g [l] — and of every VLB path: two local hops
// inside a group, or two MIN legs through a switch of a third group,
// [l] g, zero to two locals, g [l].
func shapes() (min, vlb []int) {
	min = []int{1 << 1}
	vlb = []int{1 << 2}
	for pre := range 2 {
		for post := range 2 {
			h := pre + 1 + post
			min = append(min, 1<<h|1<<post)
			for mid := range 3 {
				h := pre + 1 + mid + 1 + post
				vlb = append(vlb, 1<<h|1<<(mid+1+post)|1<<post)
			}
		}
	}
	return min, vlb
}

// pathShape is a path's shape index.
func pathShape(tp *topo.Compiled, p paths.Path) int {
	shape := 1
	for _, pt := range p.Ports {
		shape <<= 1
		if tp.KindOfPort(int(pt)) == topo.Global {
			shape |= 1
		}
	}
	return shape
}

// TestStampsRankRises checks, over every shape a MIN or VLB path can
// take, the three stamp tables the simulator and the route service
// use: UGAL's (srcBudget 1, 4 VCs), PAR's (srcBudget 2, 5 VCs) and
// PAR's revision table, whose routes follow the one source-group local
// hop taken on VC 0. Along each, PhaseVC's channel-class rank must
// rise strictly and every VC stay inside the budget, so the channel
// dependency graph of the stamped routes is acyclic. That the shapes
// are every path's is checked by enumeration on both families.
func TestStampsRankRises(t *testing.T) {
	min, vlb := shapes()
	for _, tp := range []*topo.Compiled{topo.MustNew(2, 4, 2, 5), topo.MustNewD3(8, 4, 1)} {
		known := map[int]bool{}
		for _, sh := range append(min, vlb...) {
			known[sh] = true
		}
		for s := range tp.NumSwitches() {
			for d := range tp.NumSwitches() {
				if s == d {
					continue
				}
				for _, p := range append(paths.EnumerateMin(tp, s, d), paths.EnumerateVLB(tp, s, d)...) {
					if sh := pathShape(tp, p); !known[sh] {
						t.Fatalf("%s: path %v has shape %b outside the enumerated shapes", tp.Label(), p.Ports, sh)
					}
				}
			}
		}
		for _, tc := range []struct {
			name           string
			vcs, sb, taken int
			shapes         []int
			prevRank       int
		}{
			{"ugal", 4, 1, 0, append(min, vlb...), -1},
			{"par", 5, 2, 0, append(min, vlb...), -1},
			{"par-revised", 5, 2, 1, vlb, 0},
		} {
			st := stampShapes(tp, tc.vcs, PhaseVC, tc.sb, tc.taken)
			for _, sh := range tc.shapes {
				w := st[sh]
				h := bits.Len(uint(sh)) - 1
				if netsim.WordHops(w) != h {
					t.Fatalf("%s/%s shape %b: stamp holds %d hops, want %d", tp.Label(), tc.name, sh, netsim.WordHops(w), h)
				}
				prev := tc.prevRank
				for i := range h {
					port, vc := netsim.WordHop(w, i)
					kind := topo.Local
					if sh>>(h-1-i)&1 == 1 {
						kind = topo.Global
					}
					if port != 0 || int(vc) >= tc.vcs {
						t.Fatalf("%s/%s shape %b hop %d: port %d, vc %d of %d", tp.Label(), tc.name, sh, i, port, vc, tc.vcs)
					}
					r := rank(kind, int(vc), tc.sb)
					if r <= prev {
						t.Fatalf("%s/%s shape %b hop %d: rank %d after %d", tp.Label(), tc.name, sh, i, r, prev)
					}
					prev = r
				}
			}
		}
	}
}

// TestNoDeadlockUnderStress drives each scheme far past saturation
// and requires sustained delivery progress (a deadlock would zero
// the delivered count in the window, as the pre-fix PAR runs did).
func TestNoDeadlockUnderStress(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	pol := paths.Full{T: tp}
	for _, tc := range []struct {
		rf  netsim.RoutingFunc
		vcs int
	}{
		{NewUGALL(tp, pol), 4},
		{NewUGALG(tp, pol), 4},
		{NewPAR(tp, pol), 5},
		{NewVLB(tp, pol), 4},
	} {
		cfg := netsim.DefaultConfig()
		cfg.NumVCs = tc.vcs
		cfg.BufSize = 8 // small buffers make deadlock easier to hit
		n := netsim.New(tp, cfg, tc.rf, traffic.Shift{T: tp, DG: 1, DS: 0}, 1.0)
		res := n.Run(3000, 2000, 0)
		if res.Throughput <= 0.01 {
			t.Errorf("%s: throughput %.4f at full load — deadlock suspected",
				tc.rf.Name(), res.Throughput)
		}
	}
}

// TestPiggybackSeesFarEndCongestion: on adversarial traffic UGAL-PB
// must perform at least as well as plain UGAL-L (it has strictly
// more information), visible as equal-or-higher accepted throughput
// near UGAL-L's saturation point.
func TestPiggybackSeesFarEndCongestion(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	cfg := netsim.DefaultConfig()
	pat := traffic.Shift{T: tp, DG: 2, DS: 0}
	run := func(rf netsim.RoutingFunc) float64 {
		n := netsim.New(tp, cfg, rf, pat, 0.22)
		return n.Run(2500, 2000, 3000).Throughput
	}
	l := run(NewUGALL(tp, paths.Full{T: tp}))
	pb := run(NewPiggyback(tp, paths.Full{T: tp}))
	if pb < l*0.9 {
		t.Fatalf("UGAL-PB throughput %.3f well below UGAL-L %.3f", pb, l)
	}
}

// TestWatchdogFlagsProvokedDeadlock strips the network to a single
// VC (every phase class clamps to 0), which removes the acyclic
// channel-dependency ordering; saturating Valiant traffic then wedges
// and the simulator's watchdog must notice. This guards the watchdog
// itself — the shipped schemes never trip it (see
// TestNoDeadlockUnderStress).
func TestWatchdogFlagsProvokedDeadlock(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cfg := netsim.DefaultConfig()
	cfg.NumVCs = 1
	cfg.BufSize = 4
	rf := NewVLB(tp, paths.Full{T: tp})
	n := netsim.New(tp, cfg, rf, traffic.Shift{T: tp, DG: 1, DS: 0}, 1.0)
	res := n.Run(6000, 3000, 0)
	if !res.DeadlockSuspected {
		t.Skip("1-VC configuration did not wedge in this window; watchdog untested")
	}
	if res.Throughput > 0.01 {
		t.Fatalf("watchdog fired but throughput is %v", res.Throughput)
	}
}

// TestHopCountScheme checks the Fig-18 per-hop VC scheme.
func TestHopCountScheme(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	rf := NewUGALG(tp, paths.Full{T: tp})
	rf.Scheme = HopCountVC
	n := mkNet(tp, rf, 6)
	r := rng.New(6)
	for i := 0; i < 300; i++ {
		src, dst := r.Intn(tp.NumNodes()), r.Intn(tp.NumNodes())
		if src == dst {
			continue
		}
		f := &netsim.Flit{Src: int32(src), Dst: int32(dst)}
		rf.SourceRoute(n, r, f)
		for h, hop := range hopsOf(f.Word) {
			if int(hop.VC) != h {
				t.Fatalf("hop %d has vc %d under HopCountVC", h, hop.VC)
			}
		}
	}
}

func TestThresholdBiasesTowardMin(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	// A huge threshold forces MIN under any congestion.
	rf := NewUGALL(tp, paths.Full{T: tp})
	rf.Threshold = 1 << 20
	cfg := netsim.DefaultConfig()
	n := netsim.New(tp, cfg, rf, traffic.Shift{T: tp, DG: 1, DS: 0}, 0.5)
	res := n.Run(1500, 1000, 1000)
	if res.VLBFraction > 0 {
		t.Fatalf("threshold-biased UGAL still routed %.2f%% VLB", 100*res.VLBFraction)
	}
}
