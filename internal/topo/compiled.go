package topo

import "fmt"

// Compiled is the flat port-graph arena of one topology instance —
// the object every downstream layer (paths, flow, routing, traffic,
// netsim, core) reads. It is built once per instance by Compile from
// a family's Network implementation, in the same style as
// paths.Store: id decompositions, peer/kind/latency tables and the
// inter-group link lists are flat int32/int16/int8 arrays, so the
// simulator's inner loop never makes a virtual call or a hardware
// divide per flit. Compiled is immutable after construction and safe
// for concurrent use.
type Compiled struct {
	// Schema embeds the hierarchical parameters: P (terminals per
	// switch), A (switches per group), H (global-port slots per
	// switch), G (groups).
	Schema

	// Net is the family instance this arena was compiled from.
	Net Network

	// K is the number of wired global links between each ordered pair
	// of distinct groups (uniform across pairs in every supported
	// family): a*h/(g-1) on the Dragonfly, K/M on the Swapped
	// Dragonfly.
	K int

	// linksBetween[gi*G+gj] caches the K global links from group gi
	// to group gj (empty for gi == gj). Shared, read-only.
	linksBetween [][]GlobalLink

	// Port-graph arena: for each switch, the peer switch and far-end
	// port of every non-terminal port, flat at [sw*(a-1+h) + (pt-p)].
	// -1 marks an unwired port (the Swapped Dragonfly's swap fixed
	// points); terminal ports are not represented.
	peerSw   []int32
	peerPort []int16

	// kind[pt] classifies port number pt; lat[pt] is its latency
	// class (LatTerminal/LatLocal/LatGlobal), mapped to cycle counts
	// by the simulator's Config. Both indexed by raw port number.
	kind []PortKind
	lat  []int8

	// Strength-reduction tables for the id decompositions: p and a
	// are runtime values, so sw/a-style divisions cost a hardware
	// divide on every call — and the simulator's injection path
	// performs dozens per packet. The tables are a few hundred KB at
	// the largest supported sizes and read-only after construction.
	swGroup   []int32 // sw -> sw / a
	swIdx     []int16 // sw -> sw % a
	nodeSw    []int32 // node -> node / p
	nodeIdx   []int16 // node -> node % p
	nodeGroup []int32 // node -> node / (a*p)
}

// Limits of a compilable instance. Ports are int8 in paths, netsim and
// the route word's 7-bit port field, which caps the radix and with it A
// and P (and keeps swIdx, nodeIdx and peerPort inside their int16); the
// other three are a budget, some way past any dragonfly built or
// studied, that holds the arenas Compile allocates to about 100 MB.
const (
	MaxRadix     = 128
	MaxSwitches  = 1 << 16
	MaxGroups    = 1 << 10 // linksBetween has G*G rows
	MaxPeerSlots = 1 << 22 // NumSwitches * (A-1+H), the peer tables
)

// overLimit names the limit a schema breaks — one the compiled arenas
// or a route word cannot represent, or the budget above — or returns "".
// Every factor is bounded before it is multiplied, so no product
// overflows.
func (s Schema) overLimit() string {
	switch {
	case s.P < 1 || s.A < 2 || s.H < 1 || s.G < 2:
		return "P>=1, A>=2, H>=1, G>=2"
	case s.P > MaxRadix || s.A > MaxRadix || s.H > MaxRadix || s.Radix() > MaxRadix:
		return fmt.Sprintf("radix P+A-1+H <= %d", MaxRadix)
	case s.G > MaxGroups:
		return fmt.Sprintf("G <= %d", MaxGroups)
	case s.NumSwitches() > MaxSwitches:
		return fmt.Sprintf("G*A <= %d switches", MaxSwitches)
	case s.NumSwitches()*(s.A-1+s.H) > MaxPeerSlots:
		return fmt.Sprintf("G*A*(A-1+H) <= %d peer-table slots", MaxPeerSlots)
	}
	return ""
}

// Compile builds the flat arena for a family instance: decomposition
// tables, the peer/kind/latency port tables, and the per-group-pair
// link lists (bucketed in ascending (switch, port) order, which on
// the Dragonfly reproduces the paper's parallel-link order exactly).
// It fails, before allocating anything, if the schema is outside the
// limits above, and later if the wiring is asymmetric, escapes the
// schema, or joins group pairs unevenly.
func Compile(n Network) (*Compiled, error) {
	s := n.Schema()
	if limit := s.overLimit(); limit != "" {
		return nil, fmt.Errorf("%w: %s schema %+v breaks the compile limit %s", ErrBadParams, n.Family(), s, limit)
	}
	c := &Compiled{Schema: s, Net: n}
	nsw := s.NumSwitches()
	c.swGroup = make([]int32, nsw)
	c.swIdx = make([]int16, nsw)
	for sw := 0; sw < nsw; sw++ {
		c.swGroup[sw] = int32(sw / s.A)
		c.swIdx[sw] = int16(sw % s.A)
	}
	nn := s.NumNodes()
	c.nodeSw = make([]int32, nn)
	c.nodeIdx = make([]int16, nn)
	c.nodeGroup = make([]int32, nn)
	for nd := 0; nd < nn; nd++ {
		c.nodeSw[nd] = int32(nd / s.P)
		c.nodeIdx[nd] = int16(nd % s.P)
		c.nodeGroup[nd] = int32(nd / (s.A * s.P))
	}
	c.kind = make([]PortKind, s.Radix())
	c.lat = make([]int8, s.Radix())
	for pt := 0; pt < s.Radix(); pt++ {
		c.kind[pt] = s.KindOfPort(pt)
		switch c.kind[pt] {
		case Local:
			c.lat[pt] = LatLocal
		case Global:
			c.lat[pt] = LatGlobal
		default:
			c.lat[pt] = LatTerminal
		}
	}

	// Peer tables: locals by in-group arithmetic, globals from the
	// family wiring. Unwired slots stay -1.
	nonTerm := s.A - 1 + s.H
	c.peerSw = make([]int32, nsw*nonTerm)
	c.peerPort = make([]int16, nsw*nonTerm)
	for i := range c.peerSw {
		c.peerSw[i] = -1
		c.peerPort[i] = -1
	}
	for u := 0; u < nsw; u++ {
		base := u * nonTerm
		gi, su := int(c.swGroup[u]), int(c.swIdx[u])
		for sv := 0; sv < s.A; sv++ {
			if sv == su {
				continue
			}
			slot := sv
			if slot > su {
				slot--
			}
			back := su
			if back > sv {
				back--
			}
			c.peerSw[base+slot] = int32(gi*s.A + sv)
			c.peerPort[base+slot] = int16(s.P + back)
		}
		for gp := 0; gp < s.H; gp++ {
			peer, pgp, ok := n.GlobalPeerOK(u, gp)
			if !ok {
				continue
			}
			if peer < 0 || peer >= nsw || pgp < 0 || pgp >= s.H {
				return nil, fmt.Errorf("topo: %s wiring of switch %d global port %d escapes the schema: (%d,%d)", n.Family(), u, gp, peer, pgp)
			}
			c.peerSw[base+s.A-1+gp] = int32(peer)
			c.peerPort[base+s.A-1+gp] = int16(s.GlobalPort(pgp))
		}
	}
	c.buildLinkCache()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustCompile is Compile panicking on error; for tests and examples
// with known-good families.
func MustCompile(n Network) *Compiled {
	c, err := Compile(n)
	if err != nil {
		panic(err)
	}
	return c
}

// buildLinkCache buckets every wired global channel by its ordered
// group pair, scanning switches and ports in ascending order.
func (c *Compiled) buildLinkCache() {
	c.linksBetween = make([][]GlobalLink, c.G*c.G)
	counts := make([]int32, c.G*c.G)
	nonTerm := c.A - 1 + c.H
	for sw := 0; sw < c.NumSwitches(); sw++ {
		gi := int(c.swGroup[sw])
		for gp := 0; gp < c.H; gp++ {
			peer := c.peerSw[sw*nonTerm+c.A-1+gp]
			if peer < 0 {
				continue
			}
			counts[gi*c.G+int(c.swGroup[peer])]++
		}
	}
	buckets := make([][]GlobalLink, c.G*c.G)
	for pair, n := range counts {
		buckets[pair] = make([]GlobalLink, 0, n)
	}
	for sw := 0; sw < c.NumSwitches(); sw++ {
		gi := int(c.swGroup[sw])
		for gp := 0; gp < c.H; gp++ {
			peer := c.peerSw[sw*nonTerm+c.A-1+gp]
			if peer < 0 {
				continue
			}
			pair := gi*c.G + int(c.swGroup[peer])
			buckets[pair] = append(buckets[pair], GlobalLink{
				From:     int32(sw),
				To:       peer,
				FromPort: int32(gp),
			})
		}
	}
	for pair, b := range buckets {
		c.linksBetween[pair] = b[:len(b):len(b)]
	}
	// K: uniform wired links per ordered distinct group pair.
	c.K = len(c.linksBetween[1]) // pair (0,1); G >= 2 always
}

// Label renders the instance in its family notation.
func (c *Compiled) Label() string { return c.Net.Label() }

// Family is the short family name of the compiled instance.
func (c *Compiled) Family() string { return c.Net.Family() }

// GroupOf returns the group of a switch.
func (c *Compiled) GroupOf(sw int) int { return int(c.swGroup[sw]) }

// SwitchIndexInGroup returns a switch's index within its group.
func (c *Compiled) SwitchIndexInGroup(sw int) int { return int(c.swIdx[sw]) }

// SwitchID composes a switch id from group and in-group index.
func (c *Compiled) SwitchID(group, idx int) int { return group*c.A + idx }

// SwitchOfNode returns the switch a node attaches to.
func (c *Compiled) SwitchOfNode(node int) int { return int(c.nodeSw[node]) }

// NodeID composes a node id from switch and terminal index.
func (c *Compiled) NodeID(sw, k int) int { return sw*c.P + k }

// NodeIndex returns a node's terminal index at its switch.
func (c *Compiled) NodeIndex(node int) int { return int(c.nodeIdx[node]) }

// GroupOfNode returns the group a node belongs to.
func (c *Compiled) GroupOfNode(node int) int { return int(c.nodeGroup[node]) }

// GlobalPeer returns the far-end switch of global port gp of sw. It
// panics on unwired ports; families with unwired slots are queried
// through GlobalPeerOK.
func (c *Compiled) GlobalPeer(sw, gp int) int {
	peer := c.peerSw[sw*(c.A-1+c.H)+c.A-1+gp]
	if peer < 0 {
		panic(fmt.Sprintf("topo: GlobalPeer(%d,%d) on unwired port", sw, gp))
	}
	return int(peer)
}

// GlobalPeerPort returns the far-end global port index of global port
// gp of sw. It panics on unwired ports.
func (c *Compiled) GlobalPeerPort(sw, gp int) int {
	pp := c.peerPort[sw*(c.A-1+c.H)+c.A-1+gp]
	if pp < 0 {
		panic(fmt.Sprintf("topo: GlobalPeerPort(%d,%d) on unwired port", sw, gp))
	}
	return int(pp) - c.P - c.A + 1
}

// GlobalPeerOK resolves global port gp of sw to its far end,
// ok=false for unwired or out-of-range ports.
func (c *Compiled) GlobalPeerOK(sw, gp int) (peer, peerGp int, ok bool) {
	if sw < 0 || sw >= c.NumSwitches() || gp < 0 || gp >= c.H {
		return 0, 0, false
	}
	i := sw*(c.A-1+c.H) + c.A - 1 + gp
	if c.peerSw[i] < 0 {
		return 0, 0, false
	}
	return int(c.peerSw[i]), int(c.peerPort[i]) - c.P - c.A + 1, true
}

// LocalPort returns the port on switch u toward switch v, which must
// be a different switch of the same group.
func (c *Compiled) LocalPort(u, v int) int {
	su, sv := int(c.swIdx[u]), int(c.swIdx[v])
	if c.swGroup[u] != c.swGroup[v] || su == sv {
		panic(fmt.Sprintf("topo: LocalPort(%d,%d) not distinct same-group switches", u, v))
	}
	return c.LocalPortAt(su, sv)
}

// LocalPortAt is LocalPort by place in the group: the port on the
// switch with index su toward the one with index sv != su. Local ports
// follow the terminals, one per other switch of the group in index
// order.
func (c *Compiled) LocalPortAt(su, sv int) int {
	if sv > su {
		sv--
	}
	return c.P + sv
}

// LocalPortOK is LocalPort returning ok=false instead of panicking
// when u and v are not distinct switches of one group (or are out of
// range). Library code that may be handed degraded or untrusted
// switch pairs uses this form.
func (c *Compiled) LocalPortOK(u, v int) (port int, ok bool) {
	if u < 0 || v < 0 || u >= c.NumSwitches() || v >= c.NumSwitches() {
		return 0, false
	}
	su, sv := int(c.swIdx[u]), int(c.swIdx[v])
	if c.swGroup[u] != c.swGroup[v] || su == sv {
		return 0, false
	}
	return c.LocalPortAt(su, sv), true
}

// KindOfPort classifies port number pt of any switch.
func (c *Compiled) KindOfPort(pt int) PortKind {
	return c.Schema.KindOfPort(pt)
}

// LatencyClass returns the latency class of port pt
// (LatTerminal/LatLocal/LatGlobal).
func (c *Compiled) LatencyClass(pt int) int8 { return c.lat[pt] }

// PeerOfPort resolves the switch at the far end of a local or global
// port of sw. It panics for terminal or unwired ports; validation
// paths use PeerOfPortOK.
func (c *Compiled) PeerOfPort(sw, pt int) int {
	if pt < c.P {
		panic("topo: PeerOfPort on terminal port")
	}
	peer := c.peerSw[sw*(c.A-1+c.H)+pt-c.P]
	if peer < 0 {
		panic(fmt.Sprintf("topo: PeerOfPort(%d,%d) on unwired port", sw, pt))
	}
	return int(peer)
}

// PeerOfPortOK is PeerOfPort returning ok=false for terminal,
// unwired or out-of-range ports (or switches) instead of panicking.
func (c *Compiled) PeerOfPortOK(sw, pt int) (peer int, ok bool) {
	if sw < 0 || sw >= c.NumSwitches() || pt < c.P || pt >= c.Radix() {
		return 0, false
	}
	p := c.peerSw[sw*(c.A-1+c.H)+pt-c.P]
	if p < 0 {
		return 0, false
	}
	return int(p), true
}

// PeerDense exposes the port-graph arena for hot loops that walk port
// sequences: entry sw*(a-1+h) + (port-p) is the switch at the far end
// of the non-terminal channel (sw, port), -1 when the port is unwired
// — the same index FailureMask.DeadDense uses. The slice is shared and
// must not be modified.
func (c *Compiled) PeerDense() []int32 { return c.peerSw }

// PeerPortOfPortOK additionally resolves the far-end port number of
// the channel (the port on the peer pointing back), ok=false exactly
// when PeerOfPortOK fails.
func (c *Compiled) PeerPortOfPortOK(sw, pt int) (peer, peerPt int, ok bool) {
	if sw < 0 || sw >= c.NumSwitches() || pt < c.P || pt >= c.Radix() {
		return 0, 0, false
	}
	i := sw*(c.A-1+c.H) + pt - c.P
	if c.peerSw[i] < 0 {
		return 0, 0, false
	}
	return int(c.peerSw[i]), int(c.peerPort[i]), true
}

// LinksBetweenGroups returns the global links from group gi to group
// gj (gi != gj): exactly K entries. The returned slice is shared and
// must not be modified.
func (c *Compiled) LinksBetweenGroups(gi, gj int) []GlobalLink {
	if gi == gj {
		panic("topo: LinksBetweenGroups with gi == gj")
	}
	return c.linksBetween[gi*c.G+gj]
}

// SameGroup reports whether two switches share a group.
func (c *Compiled) SameGroup(u, v int) bool { return c.swGroup[u] == c.swGroup[v] }

// AdjacentPort returns the port on u that reaches the adjacent switch
// v (local or global) and whether such a direct connection exists.
func (c *Compiled) AdjacentPort(u, v int) (port int, ok bool) {
	if u == v {
		return 0, false
	}
	if c.SameGroup(u, v) {
		return c.LocalPortOK(u, v)
	}
	base := u * (c.A - 1 + c.H)
	for gp := 0; gp < c.H; gp++ {
		if c.peerSw[base+c.A-1+gp] == int32(v) {
			return c.GlobalPort(gp), true
		}
	}
	return 0, false
}

// Validate rechecks the structural invariants: symmetric wiring
// (the far end of every wired channel points back), no intra-group
// global links, and a uniform number of links joining every ordered
// group pair. It is used by the conformance tests and cheap enough
// to run at every Compile.
func (c *Compiled) Validate() error {
	n := c.NumSwitches()
	nonTerm := c.A - 1 + c.H
	pairCount := make([]int, c.G*c.G)
	for sw := 0; sw < n; sw++ {
		for gp := 0; gp < c.H; gp++ {
			peer := c.peerSw[sw*nonTerm+c.A-1+gp]
			if peer < 0 {
				continue
			}
			ppt := int(c.peerPort[sw*nonTerm+c.A-1+gp])
			if int(peer) >= n {
				return fmt.Errorf("topo: switch %d global port %d peer %d out of range", sw, gp, peer)
			}
			if c.KindOfPort(ppt) != Global {
				return fmt.Errorf("topo: switch %d global port %d peers a non-global port %d", sw, gp, ppt)
			}
			if c.SameGroup(sw, int(peer)) {
				return fmt.Errorf("topo: switch %d global port %d stays in group", sw, gp)
			}
			// Bidirectional consistency: the peer's port points back.
			back := int(peer)*nonTerm + ppt - c.P
			if int(c.peerSw[back]) != sw || int(c.peerPort[back]) != c.GlobalPort(gp) {
				return fmt.Errorf("topo: link (%d,%d)<->(%d,%d) not symmetric", sw, gp, peer, ppt)
			}
			pairCount[c.GroupOf(sw)*c.G+c.GroupOf(int(peer))]++
		}
	}
	for gi := 0; gi < c.G; gi++ {
		for gj := 0; gj < c.G; gj++ {
			if gi == gj {
				continue
			}
			if cnt := pairCount[gi*c.G+gj]; cnt != c.K {
				return fmt.Errorf("topo: groups (%d,%d) joined by %d links, want %d", gi, gj, cnt, c.K)
			}
		}
	}
	return nil
}

// Table2Row mirrors a row of the paper's Table 2.
type Table2Row struct {
	Topology          string
	PEs               int
	Switches          int
	Groups            int
	LinksPerGroupPair int
}

// Table2 returns this topology's Table 2 row.
func (c *Compiled) Table2() Table2Row {
	return Table2Row{
		Topology:          c.Label(),
		PEs:               c.NumNodes(),
		Switches:          c.NumSwitches(),
		Groups:            c.G,
		LinksPerGroupPair: c.K,
	}
}
