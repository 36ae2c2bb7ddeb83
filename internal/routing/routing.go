// Package routing implements the routing functions of the paper's
// evaluation: UGAL-L (local, credit-estimated queue state), UGAL-G
// (idealized global queue state), PAR (progressive adaptive routing,
// revisable at the source-group gateway), plus pure MIN and pure VLB
// baselines. Every UGAL variant is parameterized by a
// paths.Policy — with paths.Full it is the conventional algorithm,
// with a T-VLB policy from internal/core it is the T- variant
// (T-UGAL-L, T-UGAL-G, T-PAR). That parameterization *is* the
// paper's contribution: T-UGAL changes only the candidate VLB set.
package routing

import (
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/topo"
)

// VCScheme selects the virtual-channel allocation scheme (Fig. 18).
type VCScheme int

// VC allocation schemes.
const (
	// PhaseVC assigns VCs by route phase. Local channels use one
	// class per (phase, index-within-phase): source-group locals get
	// classes [0, srcBudget), intermediate-group locals (up to two —
	// the landing-to-intermediate and intermediate-to-gateway hops)
	// get srcBudget and srcBudget+1, and the destination-group local
	// gets srcBudget+2. Global channels use class 0 for the first
	// and 1 for the second global hop. Ranking channel classes as
	// l_0 < .. < l_{srcBudget-1} < g_0 < l_inter1 < l_inter2 < g_1 <
	// l_dst, every route's class sequence strictly increases, so the
	// channel dependency graph is acyclic and the network is
	// deadlock-free. srcBudget is 1 for UGAL (total 4 local classes,
	// the paper's 4 VCs) and 2 for PAR, whose source-group detour
	// adds one local hop (total 5, the paper's 5 VCs).
	PhaseVC VCScheme = iota
	// HopCountVC assigns VC = hop index: "a new virtual channel every
	// hop", the 6-VC scheme of Figure 18.
	HopCountVC
)

// Mode distinguishes the three UGAL variants.
type Mode int

// UGAL variants.
const (
	// Local estimates path queueing from the source switch's credit
	// state: occupancy(first hop) x path length (UGAL-L).
	Local Mode = iota
	// Global sums true downstream queue occupancy along the whole
	// path (the idealized UGAL-G).
	Global
	// Progressive is PAR: UGAL-L at the source, with the decision
	// revisable at the second switch in the source group.
	Progressive
	// MinOnly always routes minimally.
	MinOnly
	// VLBOnly always routes on a candidate VLB path when one exists.
	VLBOnly
	// Piggyback is the PB scheme of Won et al. (HPCA'15, the paper's
	// ref [11]): UGAL-L augmented with the congestion of the path's
	// source-group global channel, which routers within a group
	// learn through piggybacked state. It specifically fixes UGAL-L's
	// far-end-congestion blindness (the local hop to the gateway
	// looks idle while the global link behind it is jammed).
	Piggyback
)

// UGAL is a configurable UGAL-family routing function. Instances
// keep per-packet scratch buffers and are NOT safe for concurrent
// use: create one per concurrently running simulation.
type UGAL struct {
	T      *topo.Compiled
	Policy paths.Policy
	Mode   Mode
	Scheme VCScheme
	// Threshold is the paper's T bias toward MIN paths (default 0).
	Threshold int
	// Label overrides the derived name.
	Label string
	// Fail, when non-nil, makes the router failure-aware: MIN
	// candidates are drawn from surviving paths only, VLB samples are
	// rejected while dead (compiled policies should already be the
	// degraded store epoch, making the check free), and a packet with
	// no surviving candidate at all is refused — its route is left
	// empty, the sentinel the simulator's injection path drops
	// deterministically.
	Fail *topo.FailureMask

	// Reusable candidate-path buffers (hot path: one MIN and one VLB
	// candidate per packet).
	minBuf, vlbBuf paths.Path
}

// vlbAttempts bounds the aliveness rejection loop under a failure mask
// (the same budget paths uses for its own rejection samplers).
const vlbAttempts = 64

// sampleVLB draws one candidate VLB path into vlbBuf. With a
// compiled policy this is a single PathID draw materialized straight
// into the reusable buffer — O(1) and allocation-free regardless of
// how restrictive the policy is; otherwise it is the interpreted
// sampler. Under a failure mask only alive paths are returned, by
// rejection (bounded) against the mask: a store degraded under it
// stores no dead path, so its first draw is taken.
func (u *UGAL) sampleVLB(r *rng.Source, s, d int) bool {
	if u.Fail == nil {
		return u.Policy.SampleVLBInto(r, s, d, &u.vlbBuf)
	}
	for try := 0; try < vlbAttempts; try++ {
		if !u.Policy.SampleVLBInto(r, s, d, &u.vlbBuf) {
			return false
		}
		if paths.Alive(u.Fail, u.vlbBuf) {
			return true
		}
	}
	return false
}

// Constructors for the paper's six schemes. The conventional variant
// uses paths.Full; passing a T-VLB policy yields the T- variant.

// NewUGALL builds UGAL-L (or T-UGAL-L under a custom policy).
func NewUGALL(t *topo.Compiled, pol paths.Policy) *UGAL {
	return &UGAL{T: t, Policy: pol, Mode: Local}
}

// NewUGALG builds UGAL-G (or T-UGAL-G under a custom policy).
func NewUGALG(t *topo.Compiled, pol paths.Policy) *UGAL {
	return &UGAL{T: t, Policy: pol, Mode: Global}
}

// NewPAR builds PAR (or T-PAR under a custom policy).
func NewPAR(t *topo.Compiled, pol paths.Policy) *UGAL {
	return &UGAL{T: t, Policy: pol, Mode: Progressive}
}

// NewPiggyback builds UGAL-PB (or T-UGAL-PB under a custom policy).
func NewPiggyback(t *topo.Compiled, pol paths.Policy) *UGAL {
	return &UGAL{T: t, Policy: pol, Mode: Piggyback}
}

// NewMin builds the pure minimal-routing baseline.
func NewMin(t *topo.Compiled) *UGAL {
	return &UGAL{T: t, Policy: paths.Full{T: t}, Mode: MinOnly}
}

// NewVLB builds the pure Valiant baseline over a policy's path set.
func NewVLB(t *topo.Compiled, pol paths.Policy) *UGAL {
	return &UGAL{T: t, Policy: pol, Mode: VLBOnly}
}

// CloneRouting implements netsim.RoutingFunc: an independent copy
// with fresh scratch buffers, letting the execution engine run
// seeds and load points concurrently.
func (u *UGAL) CloneRouting() netsim.RoutingFunc {
	c := *u
	c.minBuf = paths.Path{}
	c.vlbBuf = paths.Path{}
	return &c
}

// RevisesInFlight implements netsim.InFlightReviser: only PAR
// (Progressive) marks flits Revisable and rewrites routes at
// head-of-buffer time; every other mode decides the full route at the
// source and is therefore eligible for more than one shard.
func (u *UGAL) RevisesInFlight() bool { return u.Mode == Progressive }

// Name implements netsim.RoutingFunc.
func (u *UGAL) Name() string {
	if u.Label != "" {
		return u.Label
	}
	base := ""
	switch u.Mode {
	case Local:
		base = "UGAL-L"
	case Global:
		base = "UGAL-G"
	case Progressive:
		base = "PAR"
	case MinOnly:
		return "MIN"
	case VLBOnly:
		base = "VLB"
	case Piggyback:
		base = "UGAL-PB"
	}
	if !paths.IsConventional(u.Policy) {
		base = "T-" + base
	}
	return base
}

// appendHops extends a route with a path's hops, assigning VCs per
// the scheme. srcBudget is the number of local classes reserved for
// the source-group phase (1 for UGAL, 2 for PAR). localInPhase,
// globalTaken and hopsTaken describe hops already executed (non-zero
// only for PAR revision mid-route). VCs are clamped to the
// configured budget; the default budgets never clamp.
func appendHops(route []netsim.RouteHop, t *topo.Compiled, numVCs int,
	scheme VCScheme, srcBudget int, p paths.Path, localInPhase, globalTaken, hopsTaken int) []netsim.RouteHop {
	for _, pt := range p.Ports {
		var vc int
		switch scheme {
		case PhaseVC:
			if t.KindOfPort(int(pt)) == topo.Global {
				vc = globalTaken
				globalTaken++
				localInPhase = 0
			} else {
				switch globalTaken {
				case 0: // source-group phase
					vc = localInPhase
				case 1: // intermediate-group phase (or MIN destination)
					vc = srcBudget + localInPhase
				default: // destination-group phase
					vc = srcBudget + 2
				}
				localInPhase++
			}
		case HopCountVC:
			vc = hopsTaken
		}
		hopsTaken++
		if vc >= numVCs {
			vc = numVCs - 1
		}
		route = append(route, netsim.RouteHop{Port: pt, VC: int8(vc)})
	}
	return route
}

// AppendVCHops extends route with p's hops, assigning virtual
// channels exactly as SourceRoute does for a source-decided packet
// (no hops taken yet) under the given scheme and VC budget. srcBudget
// is the number of local classes reserved for the source-group phase:
// 1 for every UGAL-family scheme, 2 for PAR. It exists for layers
// that precompile routing decisions — the forwarding-table emitter in
// internal/route compiles every candidate path through it, so emitted
// tables carry bit-identical VC assignments to live routing.
func AppendVCHops(route []netsim.RouteHop, t *topo.Compiled, numVCs int,
	scheme VCScheme, srcBudget int, p paths.Path) []netsim.RouteHop {
	return appendHops(route, t, numVCs, scheme, srcBudget, p, 0, 0, 0)
}

// creditCost is UGAL-L's path-delay estimate: source-local downstream
// occupancy of the path's first channel times the path hop count.
func creditCost(n *netsim.Network, p paths.Path) int {
	if p.Hops() == 0 {
		return 0
	}
	return n.CreditOcc(p.Sw[0], int(p.Ports[0])) * p.Hops()
}

// globalCost is UGAL-G's oracle estimate: total downstream queue
// occupancy along every channel of the path.
func globalCost(n *netsim.Network, p paths.Path) int {
	total := 0
	for i, pt := range p.Ports {
		total += n.DownstreamOcc(p.Sw[i], int(pt))
	}
	return total
}

// piggybackCost is PB's estimate: UGAL-L's first-hop occupancy plus
// the credit occupancy of the path's first global channel when its
// gateway lies in the source group — information a PB router has
// from in-group broadcasts — scaled by path length.
func piggybackCost(n *netsim.Network, t *topo.Compiled, p paths.Path) int {
	if p.Hops() == 0 {
		return 0
	}
	occ := n.CreditOcc(p.Sw[0], int(p.Ports[0]))
	srcGroup := t.GroupOf(p.Src())
	for i, pt := range p.Ports {
		if t.GroupOf(int(p.Sw[i])) != srcGroup {
			break
		}
		if t.KindOfPort(int(pt)) == topo.Global {
			if i > 0 { // first hop already counted
				occ += n.CreditOcc(p.Sw[i], int(pt))
			}
			break
		}
	}
	return occ * p.Hops()
}

// SourceRoute implements netsim.RoutingFunc.
func (u *UGAL) SourceRoute(n *netsim.Network, r *rng.Source, f *Flit) {
	t := u.T
	s := t.SwitchOfNode(int(f.Src))
	d := t.SwitchOfNode(int(f.Dst))
	eject := netsim.RouteHop{Port: int8(t.NodeIndex(int(f.Dst))), VC: 0}
	if s == d {
		if u.Fail != nil && u.Fail.SwitchDead(s) {
			f.Route = f.Route[:0] // refused: dead switch
			return
		}
		f.Route = append(f.Route[:0], eject)
		f.MinRouted = true
		return
	}
	minOK := paths.SampleMinAliveInto(t, u.Fail, r, s, d, &u.minBuf)
	useMin := minOK
	vlbOK := false
	switch u.Mode {
	case MinOnly:
	case VLBOnly:
		vlbOK = u.sampleVLB(r, s, d)
		if vlbOK {
			useMin = false
		}
	default:
		vlbOK = u.sampleVLB(r, s, d)
		if vlbOK {
			if !minOK {
				useMin = false
			} else {
				var qMin, qVlb int
				switch u.Mode {
				case Global:
					qMin = globalCost(n, u.minBuf)
					qVlb = globalCost(n, u.vlbBuf)
				case Piggyback:
					qMin = piggybackCost(n, t, u.minBuf)
					qVlb = piggybackCost(n, t, u.vlbBuf)
				default:
					qMin = creditCost(n, u.minBuf)
					qVlb = creditCost(n, u.vlbBuf)
				}
				useMin = qMin <= qVlb+u.Threshold
			}
		}
	}
	if (useMin && !minOK) || (!useMin && !vlbOK) {
		// No surviving candidate in the modes allowed to serve this
		// packet: refuse it (empty-route sentinel). The second clause
		// covers pairs where both samplers came up empty — without it
		// the route would be built from the stale VLB buffer.
		f.Route = f.Route[:0]
		return
	}
	chosen := u.minBuf
	if !useMin {
		chosen = u.vlbBuf
	}
	f.Route = appendHops(f.Route[:0], t, n.Cfg.NumVCs, u.Scheme, u.srcBudget(), chosen, 0, 0, 0)
	f.Route = append(f.Route, eject)
	f.MinRouted = useMin
	// PAR: a MIN decision whose path enters the network through a
	// local hop followed by a global hop may be revised at the
	// gateway switch.
	if u.Mode == Progressive && useMin && chosen.Hops() >= 2 &&
		t.KindOfPort(int(chosen.Ports[0])) == topo.Local &&
		t.KindOfPort(int(chosen.Ports[1])) == topo.Global {
		f.Revisable = true
	}
}

// Flit aliases the simulator's packet type for readability.
type Flit = netsim.Flit

// Revise implements netsim.RoutingFunc: PAR's in-source-group
// re-evaluation. Called once at the gateway switch (HopIdx==1 after
// a local first hop); other modes never set Revisable.
func (u *UGAL) Revise(n *netsim.Network, r *rng.Source, f *Flit, sw int32) {
	if u.Mode != Progressive || f.HopIdx != 1 {
		return
	}
	t := u.T
	d := t.SwitchOfNode(int(f.Dst))
	if int(sw) == d {
		return
	}
	// Remaining MIN route viewed from here (exclude the ejection hop).
	remHops := len(f.Route) - 1 - int(f.HopIdx)
	if remHops <= 0 {
		return
	}
	qMin := n.CreditOcc(sw, int(f.Route[f.HopIdx].Port)) * remHops
	if !u.sampleVLB(r, int(sw), d) || u.vlbBuf.Hops() == 0 {
		return
	}
	vlbPath := u.vlbBuf
	qVlb := n.CreditOcc(sw, int(vlbPath.Ports[0])) * vlbPath.Hops()
	if qMin <= qVlb+u.Threshold {
		return
	}
	// Divert: rewrite the remaining route with the VLB path from the
	// gateway. One source-group local hop has been taken (that is
	// what made the flit revisable), so the source-phase local index
	// starts at 1 — the extra class PAR's 5th VC accommodates.
	eject := f.Route[len(f.Route)-1]
	f.Route = appendHops(f.Route[:f.HopIdx], t, n.Cfg.NumVCs, u.Scheme,
		u.srcBudget(), vlbPath, 1, 0, int(f.HopIdx))
	f.Route = append(f.Route, eject)
	f.MinRouted = false
}

// srcBudget is the number of local VC classes reserved for the
// source-group phase: PAR's detour needs two, everything else one.
func (u *UGAL) srcBudget() int {
	if u.Mode == Progressive {
		return 2
	}
	return 1
}
