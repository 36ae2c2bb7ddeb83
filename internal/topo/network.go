// Topology-family interface. The pipeline's thesis — path sets
// should be topology-custom — requires running Algorithm 1 over more
// than one topology family. A family (the classic Dragonfly, the
// Swapped Dragonfly D3(K,M), ...) implements Network: it declares the
// shared hierarchical id/port Schema, resolves the family's global
// wiring, and names its adversarial stress set. The interface is
// deliberately *compile-time*: Compile consumes a Network once to
// build the flat Compiled port-graph arena that paths, flow, routing
// and netsim read — no virtual call ever sits on a per-flit or
// per-packet hot path.
package topo

// Network is the topology-family interface. Implementations are
// immutable after construction and safe for concurrent use.
//
// Every family in this repository shares the two-level hierarchical
// Schema (groups of switches, switches with terminal/local/global
// ports); what distinguishes a family is its global wiring, its
// parameter constraints and its adversarial pattern set. A family whose groups are not complete graphs
// would need a Schema extension; none of the planned families
// (Dragonfly arrangements, Swapped Dragonfly) does.
type Network interface {
	// Family is the short family name ("dfly", "d3") used by
	// family-qualified specs.
	Family() string

	// Label renders the instance in the family's own notation, e.g.
	// "dfly(4,8,4,9)" or "d3(8,4)".
	Label() string

	// Schema returns the hierarchical id/port layout parameters.
	Schema() Schema

	// GlobalPeerOK resolves global port gp (0..H-1) of switch sw to
	// its far-end (switch, global-port index). ok=false means the
	// port is unwired in this family (the Swapped Dragonfly's swap
	// fixed points); unwired ports carry no channel.
	GlobalPeerOK(sw, gp int) (peerSw, peerGp int, ok bool)

	// AdversarialShifts is the family's TYPE_1-style stress set: the
	// (Δg, Δs) shift patterns Algorithm 1 probes in Step 1, in a
	// deterministic order.
	AdversarialShifts() [][2]int
}

// Schema is the hierarchical id/port layout shared by every family:
// G groups of A switches, each switch with P terminal links and H
// global-port slots. Ports of a switch are numbered [0,P) terminal,
// [P, P+A-1) local (one per other switch of the group, in in-group
// index order skipping self), and [P+A-1, P+A-1+H) global. Switch s
// of group gi has id gi*A+s; terminal node n of switch sw has id
// sw*P+n. A family may leave individual global-port slots unwired.
type Schema struct {
	P int // terminal (compute-node) links per switch
	A int // switches per group, fully connected intra-group
	H int // global-port slots per switch
	G int // number of groups
}

// NumSwitches returns g*a.
func (s Schema) NumSwitches() int { return s.G * s.A }

// NumNodes returns g*a*p, the paper's "No. of PEs".
func (s Schema) NumNodes() int { return s.G * s.A * s.P }

// Radix returns the switch port count p + (a-1) + h.
func (s Schema) Radix() int { return s.P + s.A - 1 + s.H }

// GlobalLinksPerGroup returns a*h, the group's global-port slots
// (an upper bound on wired links for families with unwired slots).
func (s Schema) GlobalLinksPerGroup() int { return s.A * s.H }

// GlobalPort returns the port for global-port slot gp (0..h-1).
func (s Schema) GlobalPort(gp int) int { return s.P + s.A - 1 + gp }

// KindOfPort classifies port number pt of any switch.
func (s Schema) KindOfPort(pt int) PortKind {
	switch {
	case pt < s.P:
		return Terminal
	case pt < s.P+s.A-1:
		return Local
	default:
		return Global
	}
}

// PortKind classifies a port number.
type PortKind uint8

// Port kinds.
const (
	Terminal PortKind = iota
	Local
	Global
)

// GlobalLink is one directed global connection u -> v.
type GlobalLink struct {
	From, To int32
	// FromPort is the global port index (0..h-1) at From.
	FromPort int32
}
