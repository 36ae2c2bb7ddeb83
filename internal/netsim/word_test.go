package netsim

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// walkRoutes fixes one custom route per source node: node src's
// packets take src%7 switch hops along a fixed walk from its switch —
// 0 to 6, every length a route word holds — and go to another node of
// the walk's last switch. As a traffic.Pattern it serves those
// destinations.
type walkRoutes struct {
	ports [][]int8 // per source node, the walk's out-ports
	dst   []int
}

func newWalkRoutes(t *topo.Compiled) *walkRoutes {
	w := &walkRoutes{ports: make([][]int8, t.NumNodes()), dst: make([]int, t.NumNodes())}
	for src := range w.ports {
		sw := t.SwitchOfNode(src)
		for j := range src % (WordMaxHops + 1) {
			// The first wired network port at a switch- and step-
			// dependent offset: a walk that changes switch every hop.
			for o := 0; ; o++ {
				p := t.P + (sw+j+o)%(t.Radix()-t.P)
				if next, ok := t.PeerOfPortOK(sw, p); ok {
					w.ports[src] = append(w.ports[src], int8(p))
					sw = next
					break
				}
			}
		}
		w.dst[src] = t.NodeID(sw, (t.NodeIndex(src)+1)%t.P)
	}
	return w
}

func (w *walkRoutes) Name() string { return "walk" }

func (w *walkRoutes) Dest(_ *rng.Source, src int) (int, bool) { return w.dst[src], true }

// hops returns node src's route: hop i of a k-hop route rides VC
// numVCs-k+i, so VCs rise along every route, the channel dependency
// graph is acyclic, and the last switch hop takes the top VC.
func (w *walkRoutes) hops(src int32, numVCs int) []RouteHop {
	ports := w.ports[src]
	hops := make([]RouteHop, len(ports))
	for i, p := range ports {
		hops[i] = RouteHop{Port: p, VC: int8(numVCs - len(ports) + i)}
	}
	return hops
}

// walkRouter routes every packet on its walk. revise marks every
// route that leaves room for the revision mark Revisable, with a
// Revise that keeps the hops it is given.
type walkRouter struct {
	w      *walkRoutes
	revise bool
}

func (r walkRouter) Name() string { return "walk" }

func (r walkRouter) SourceRoute(n *Network, _ *rng.Source, f *Flit) bool {
	f.Word, _ = PackWord(r.w.hops(f.Src, n.Cfg.NumVCs))
	f.MinRouted = true
	f.Revisable = r.revise && WordHops(f.Word) < WordMaxHops
	return true
}

func (r walkRouter) Revise(*Network, *rng.Source, *Flit, int32) {}

func (r walkRouter) CloneRouting() RoutingFunc { return r }

// TestRouteWords holds the simulator to the route words a RoutingFunc
// hands it, at NumVCs 8, the top VC a word holds. Every route of 0 to
// 6 switch hops must be injected with its first hop in the head cache
// and a word holding exactly the hops after it and the ejection. One
// packet from every node must then be delivered along exactly its
// hops: the channel counts and the mean hop count are the routes'.
// A run whose flits carry the revision mark must match, bit for bit,
// the run whose flits do not.
func TestRouteWords(t *testing.T) {
	if s := unsafe.Sizeof(flitRec{}); s > 32 {
		t.Fatalf("flitRec is %d bytes, want at most 32", s)
	}
	tp := topo.MustNew(2, 4, 2, 9)
	w := newWalkRoutes(tp)
	cfg := DefaultConfig()
	cfg.NumVCs = WordVCMask + 1
	cfg.Seed = 3
	cfg.CollectChanStats = true

	n := New(tp, cfg, walkRouter{w: w}, w, 0)
	n.measBegin, n.measEnd = 0, math.MaxInt64
	n.chanCount = make([]int64, tp.NumSwitches()*n.nonTerm)
	want := make([]int64, len(n.chanCount))
	wantHops := 0
	for node := range int32(tp.NumNodes()) {
		f := n.fa.alloc()
		n.fa.rec[f] = flitRec{src: node, dst: int32(w.dst[node]), flags: fMeasured}
		n.nodeQ[node].push(&n.fa, f)
		n.injected++
		n.measCount++
		n.injectNode(node, false, nil)

		hops := w.hops(node, cfg.NumVCs)
		eject := RouteHop{Port: int8(tp.NodeIndex(w.dst[node]))}
		full := append(hops, eject)
		pi := tp.SwitchOfNode(int(node))*n.ports + tp.NodeIndex(int(node))
		m := n.qMeta[pi*n.numVCs]
		rw := n.fa.link[int32(uint32(m>>32))].rw
		wantRW, _ := PackWord(full[1:])
		if hop := uint16(m >> 16); int32(uint32(m>>32)) != f || hop != uint16(full[0].Port)<<8|uint16(full[0].VC) || rw != wantRW {
			t.Fatalf("%d-hop route %v: head (%d, %#x, %#x), want (%d, %+v, %#x)",
				len(hops), hops, int32(uint32(m>>32)), hop, rw, f, full[0], wantRW)
		}
		sw := tp.SwitchOfNode(int(node))
		for _, h := range hops {
			want[sw*n.nonTerm+int(h.Port)-tp.P]++
			sw = tp.PeerOfPort(sw, int(h.Port))
		}
		wantHops += len(hops)
	}
	for n.delivered < n.injected && n.now < 10000 {
		n.step()
	}
	if n.measDeliv != int64(tp.NumNodes()) {
		t.Fatalf("delivered %d of %d packets", n.measDeliv, tp.NumNodes())
	}
	if !reflect.DeepEqual(n.chanCount, want) {
		t.Fatalf("channel counts %v, the routes' %v", n.chanCount, want)
	}
	if got, want := n.measHops.Mean(), float64(wantHops)/float64(tp.NumNodes()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean hops %v, the routes' %v", got, want)
	}

	run := func(revise bool) RunResult {
		return New(tp, cfg, walkRouter{w: w, revise: revise}, w, 0.1).Run(300, 300, 3000)
	}
	got, marked := run(false), run(true)
	if got.Measured == 0 || got.Undelivered != 0 {
		t.Fatalf("measured %d, undelivered %d", got.Measured, got.Undelivered)
	}
	gc, mc := got.Channels, marked.Channels
	got.Channels, marked.Channels = nil, nil
	if got != marked || !reflect.DeepEqual(gc, mc) {
		t.Fatalf("the marked run diverged:\nplain:  %+v\nmarked: %+v", got, marked)
	}
}
