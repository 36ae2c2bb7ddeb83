// Package flow implements the throughput model that Algorithm 1 uses
// for its Step-1 coarse-grain probing — the role played in the paper
// by a modified "Model no. 3" of Mollah et al. (PMBS'17) solved with
// IBM CPLEX.
//
// Our model is a UGAL-behavioural LP: every demand (source switch ->
// destination switch, in units of node injection bandwidth) splits
// its traffic between a MIN portion and a VLB portion; within each
// portion the traffic spreads over the candidate paths with exactly
// the probabilities UGAL's random candidate selection induces
// (uniform over (intermediate, MIN-leg, MIN-leg) combinations for
// VLB, uniform over global links for MIN). The LP maximizes the
// uniform injection fraction alpha subject to channel capacities.
// Because candidate selection is uniform, a longer path can never
// carry more rate than a shorter path of the same pair — the paper's
// added dominance constraint holds by construction here. The package
// also provides an *unconstrained* path-rate LP (exact simplex and a
// scalable Garg-Könemann approximation): the optimal-flow model whose
// overestimation on partially-restricted path sets motivated the
// paper's refinement; we keep it as an upper bound and ablation.
package flow

import (
	"tugal/internal/paths"
	"tugal/internal/topo"
)

// Edge identifies one directed channel of the network.
type Edge = int32

// Network gives every directed channel of a Dragonfly an edge index
// and a capacity, in packets/cycle: switch-to-switch channels have
// capacity 1; the p terminal injection (and ejection) channels of a
// switch are aggregated into one edge of capacity p.
type Network struct {
	T *topo.Compiled
	// NumEdges is the size of the edge space.
	NumEdges int
	// Cap[e] is the capacity of edge e.
	Cap []float64

	// Fail, when non-nil, is the failure mask load compilation
	// respects: MIN rows enumerate only surviving paths, interpreted
	// VLB candidate sets are Alive-filtered, and dead channels carry
	// zero capacity (so any load accidentally routed over dead gear
	// collapses alpha to zero instead of passing silently). Compiled
	// stores handed to the row builders must already be degraded
	// under the same mask (paths.CompileDegraded).
	Fail *topo.FailureMask

	portsPerSw int // a-1+h switch-to-switch ports
	injBase    int
	ejBase     int
}

// NewNetwork builds the edge space for a topology.
func NewNetwork(t *topo.Compiled) *Network {
	n := &Network{T: t, portsPerSw: t.A - 1 + t.H}
	sw := t.NumSwitches()
	n.injBase = sw * n.portsPerSw
	n.ejBase = n.injBase + sw
	n.NumEdges = n.ejBase + sw
	n.Cap = make([]float64, n.NumEdges)
	for e := 0; e < n.injBase; e++ {
		n.Cap[e] = 1
	}
	for s := 0; s < sw; s++ {
		n.Cap[n.injBase+s] = float64(t.P)
		n.Cap[n.ejBase+s] = float64(t.P)
	}
	return n
}

// NewDegradedNetwork builds the edge space with mask's failures
// applied: dead channels (and the terminals of dead switches) get
// capacity zero, and the mask is carried for the compilation paths.
// A nil mask is equivalent to NewNetwork.
func NewDegradedNetwork(t *topo.Compiled, mask *topo.FailureMask) *Network {
	n := NewNetwork(t)
	if mask == nil {
		return n
	}
	n.Fail = mask
	for _, ch := range mask.DeadChannels() {
		n.Cap[n.EdgeOf(int(ch.Sw), int(ch.Port))] = 0
	}
	for sw := 0; sw < t.NumSwitches(); sw++ {
		if mask.SwitchDead(sw) {
			n.Cap[n.injBase+sw] = 0
			n.Cap[n.ejBase+sw] = 0
		}
	}
	return n
}

// EdgeOf returns the edge for the non-terminal out-port of a switch.
func (n *Network) EdgeOf(sw, port int) Edge {
	return Edge(sw*n.portsPerSw + port - n.T.P)
}

// InjectionEdge returns the aggregated terminal-in edge of a switch.
func (n *Network) InjectionEdge(sw int) Edge { return Edge(n.injBase + sw) }

// EjectionEdge returns the aggregated terminal-out edge of a switch.
func (n *Network) EjectionEdge(sw int) Edge { return Edge(n.ejBase + sw) }

// IsGlobal reports whether a switch-to-switch edge is a global
// channel.
func (n *Network) IsGlobal(e Edge) bool {
	if int(e) >= n.injBase {
		return false
	}
	port := int(e)%n.portsPerSw + n.T.P
	return n.T.KindOfPort(port) == topo.Global
}

// PathEdges appends the edges traversed by a switch path, including
// the endpoint injection and ejection edges, to dst and returns it.
func (n *Network) PathEdges(dst []Edge, p paths.Path) []Edge {
	dst = append(dst, n.InjectionEdge(p.Src()))
	for i, pt := range p.Ports {
		dst = append(dst, n.EdgeOf(int(p.Sw[i]), int(pt)))
	}
	dst = append(dst, n.EjectionEdge(p.Dst()))
	return dst
}
