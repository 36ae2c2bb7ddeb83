package netsim

import (
	"reflect"
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// walkRoutes fixes one custom route per source node: node src's
// packets take src%8 switch hops along a fixed walk from its switch —
// 0 to 7, so every length a route word holds plus one it does not —
// and go to another node of the walk's last switch. As a
// traffic.Pattern it serves those destinations.
type walkRoutes struct {
	ports [][]int8 // per source node, the walk's out-ports
	dst   []int
}

func newWalkRoutes(t *topo.Compiled) *walkRoutes {
	w := &walkRoutes{ports: make([][]int8, t.NumNodes()), dst: make([]int, t.NumNodes())}
	for src := range w.ports {
		sw := t.SwitchOfNode(src)
		for j := range src % 8 {
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

// walkRouter routes every packet on its walk. Hop i of a k-hop route
// rides VC NumVCs-k+i: VCs rise along every route, so the channel
// dependency graph is acyclic, and the last switch hop takes the top
// VC. record marks every flit Revisable with a Revise that changes
// nothing, which forwards it on the arena-record path.
type walkRouter struct {
	w      *walkRoutes
	record bool
}

func (r walkRouter) Name() string { return "walk" }

func (r walkRouter) SourceRoute(n *Network, _ *rng.Source, f *Flit) {
	ports := r.w.ports[f.Src]
	f.Route = f.Route[:0]
	for i, p := range ports {
		f.Route = append(f.Route, RouteHop{Port: p, VC: int8(n.Cfg.NumVCs - len(ports) + i)})
	}
	f.Route = append(f.Route, RouteHop{Port: int8(n.T.NodeIndex(int(f.Dst)))})
	f.MinRouted = true
	f.Revisable = r.record
}

func (r walkRouter) Revise(*Network, *rng.Source, *Flit, int32) {}

func (r walkRouter) CloneRouting() RoutingFunc { return r }

// TestRouteWordFastPath holds the forward path's route word to the
// arena record. At NumVCs 8 every route of 0 to 6 switch hops must be
// injected with a word (no rwSlow) holding exactly its hops after the
// first, and a 7-hop route must take rwSlow; at NumVCs 9 the top VC
// does not fit the word's VC field, so every route whose word would
// hold a switch hop takes rwSlow too. Either way every packet must
// deliver, and a whole run must match, bit for bit, the run that
// forwards every flit on the record path.
func TestRouteWordFastPath(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	w := newWalkRoutes(tp)
	for _, numVCs := range []int{8, 9} {
		cfg := DefaultConfig()
		cfg.NumVCs = numVCs
		cfg.Seed = 3
		cfg.CollectChanStats = true

		n := New(tp, cfg, walkRouter{w: w}, w, 0.1)
		for node := range tp.NumNodes() {
			n.injectNode(int32(node), true, nil)
			pi := tp.SwitchOfNode(node)*n.ports + tp.NodeIndex(node)
			f, rw := int32(uint32(n.qMeta[pi*n.numVCs]>>32)), n.qRW[pi*n.numVCs]
			route := n.fa.routeOf(f)
			k := len(route) - 1
			if k != node%8 {
				t.Fatalf("vcs=%d node %d: routed %d switch hops, want %d", numVCs, node, k, node%8)
			}
			wantFast := k <= WordMaxHops && (numVCs <= WordVCMask+1 || k <= 1)
			if fast := rw&rwSlow == 0; fast != wantFast {
				t.Fatalf("vcs=%d %d-hop route: fast word = %v, want %v", numVCs, k, fast, wantFast)
			}
			if !wantFast {
				continue
			}
			if WordHops(rw) != k {
				t.Fatalf("vcs=%d %d-hop route: word holds %d hops, want %d", numVCs, k, WordHops(rw), k)
			}
			for i := range k {
				if p, vc := WordHop(rw, i); p != route[1+i].Port || vc != route[1+i].VC {
					t.Fatalf("vcs=%d %d-hop route: word hop %d = (%d,%d), record %+v",
						numVCs, k, i, p, vc, route[1+i])
				}
			}
		}

		run := func(record bool) RunResult {
			return New(tp, cfg, walkRouter{w: w, record: record}, w, 0.1).Run(300, 300, 3000)
		}
		got, want := run(false), run(true)
		if got.Measured == 0 || got.Undelivered != 0 {
			t.Fatalf("vcs=%d: measured %d, undelivered %d", numVCs, got.Measured, got.Undelivered)
		}
		gc, wc := got.Channels, want.Channels
		got.Channels, want.Channels = nil, nil
		if got != want || !reflect.DeepEqual(gc, wc) {
			t.Fatalf("vcs=%d: word run diverged from the record run:\nword:   %+v\nrecord: %+v", numVCs, got, want)
		}
	}
}
