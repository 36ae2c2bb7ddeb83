package topo

import "fmt"

// Channel identifies one directed channel: the out-port Port of
// switch Sw. Failures are tracked at channel granularity because
// everything downstream (path aliveness, load matrices, the
// simulator's port wiring) is directional; failing one physical link
// kills both of its channels.
type Channel struct {
	Sw   int32
	Port int8
}

// String renders the channel as sw<id>:p<port> for failure-delta
// logs and swap-stats output.
func (ch Channel) String() string {
	return fmt.Sprintf("sw%d:p%d", ch.Sw, ch.Port)
}

// FailureMask records failed global links, local links, and whole
// switches of one topology. It is built by a sequence of Fail* calls
// and is strictly read-only afterwards: the sharing contract with the
// worker pool is the same as Topology's — populate first, then query
// concurrently.
//
// Failing a link always kills both directions. Failing a switch kills
// every channel into and out of it, so a path-level aliveness check
// only needs to test the out-channel of each hop.
type FailureMask struct {
	c       *Compiled
	nonTerm int    // non-terminal ports per switch: a-1+h
	dead    []bool // dead[sw*nonTerm + (port-p)]
	deadSw  []bool
	chans   []Channel // every dead channel, in kill order, deduped

	nGlobal   int // failed global links (undirected)
	nLocal    int // failed local links (undirected)
	nSwitches int // failed switches

	// links[gi*G+gj] is LinksBetweenGroups(gi,gj) minus links whose
	// forward channel is dead; entries alias the topology's shared
	// cache until a failure in that pair forces a filtered copy.
	links [][]GlobalLink
}

// NewFailureMask returns an empty mask over c (everything alive).
func NewFailureMask(c *Compiled) *FailureMask {
	m := &FailureMask{c: c, nonTerm: c.A - 1 + c.H}
	m.dead = make([]bool, c.NumSwitches()*m.nonTerm)
	m.deadSw = make([]bool, c.NumSwitches())
	m.links = append([][]GlobalLink(nil), c.linksBetween...)
	return m
}

// Clone returns an independent copy of the mask: Fail* calls on either
// leave the other untouched. This is how a writer grows a mask that
// concurrent readers still hold — clone, fail, publish — keeping every
// published mask read-only.
func (m *FailureMask) Clone() *FailureMask {
	out := *m
	out.dead = append([]bool(nil), m.dead...)
	out.deadSw = append([]bool(nil), m.deadSw...)
	out.chans = append([]Channel(nil), m.chans...)
	// The per-pair link lists are replaced, never edited, on a failure.
	out.links = append([][]GlobalLink(nil), m.links...)
	return &out
}

// Topo returns the compiled topology the mask applies to.
func (m *FailureMask) Topo() *Compiled { return m.c }

// kill marks one directed channel dead, reporting whether it was
// alive before.
func (m *FailureMask) kill(sw, port int) bool {
	i := sw*m.nonTerm + port - m.c.P
	if m.dead[i] {
		return false
	}
	m.dead[i] = true
	m.chans = append(m.chans, Channel{Sw: int32(sw), Port: int8(port)})
	return true
}

// refreshLinks rebuilds the filtered link list of one ordered group
// pair from the topology's pristine cache.
func (m *FailureMask) refreshLinks(gi, gj int) {
	src := m.c.linksBetween[gi*m.c.G+gj]
	out := make([]GlobalLink, 0, len(src))
	for _, l := range src {
		if !m.ChannelDead(int(l.From), m.c.GlobalPort(int(l.FromPort))) {
			out = append(out, l)
		}
	}
	m.links[gi*m.c.G+gj] = out
}

// FailGlobalLink fails the global link at global port gp (0..h-1) of
// switch sw, both directions. It returns the newly dead channels —
// the delta an incremental recompilation needs — which is empty when
// the link was already down.
func (m *FailureMask) FailGlobalLink(sw, gp int) ([]Channel, error) {
	if sw < 0 || sw >= m.c.NumSwitches() {
		return nil, fmt.Errorf("topo: FailGlobalLink: switch %d out of range", sw)
	}
	if gp < 0 || gp >= m.c.H {
		return nil, fmt.Errorf("topo: FailGlobalLink: global port %d out of range [0,%d)", gp, m.c.H)
	}
	peer, ppt, ok := m.c.GlobalPeerOK(sw, gp)
	if !ok {
		return nil, fmt.Errorf("topo: FailGlobalLink: global port %d of switch %d is unwired", gp, sw)
	}
	mark := len(m.chans)
	fresh := m.kill(sw, m.c.GlobalPort(gp))
	fresh = m.kill(peer, m.c.GlobalPort(ppt)) || fresh
	if fresh {
		m.nGlobal++
		gi, gj := m.c.GroupOf(sw), m.c.GroupOf(peer)
		m.refreshLinks(gi, gj)
		m.refreshLinks(gj, gi)
	}
	return m.chans[mark:len(m.chans):len(m.chans)], nil
}

// FailLocalLink fails the intra-group link between switches u and v,
// both directions, returning the newly dead channels.
func (m *FailureMask) FailLocalLink(u, v int) ([]Channel, error) {
	pu, ok := m.c.LocalPortOK(u, v)
	if !ok {
		return nil, fmt.Errorf("topo: FailLocalLink(%d,%d): not distinct same-group switches", u, v)
	}
	pv, _ := m.c.LocalPortOK(v, u)
	mark := len(m.chans)
	fresh := m.kill(u, pu)
	fresh = m.kill(v, pv) || fresh
	if fresh {
		m.nLocal++
	}
	return m.chans[mark:len(m.chans):len(m.chans)], nil
}

// FailSwitch fails a whole switch: every local and global link at it,
// both directions, plus its terminals (SwitchDead gates injection).
// It returns the newly dead channels.
func (m *FailureMask) FailSwitch(sw int) ([]Channel, error) {
	if sw < 0 || sw >= m.c.NumSwitches() {
		return nil, fmt.Errorf("topo: FailSwitch: switch %d out of range", sw)
	}
	mark := len(m.chans)
	if m.deadSw[sw] {
		return nil, nil
	}
	m.deadSw[sw] = true
	m.nSwitches++
	g := m.c.GroupOf(sw)
	for i := 0; i < m.c.A; i++ {
		v := m.c.SwitchID(g, i)
		if v == sw {
			continue
		}
		pu, _ := m.c.LocalPortOK(sw, v)
		pv, _ := m.c.LocalPortOK(v, sw)
		fresh := m.kill(sw, pu)
		if m.kill(v, pv) || fresh {
			m.nLocal++
		}
	}
	for gp := 0; gp < m.c.H; gp++ {
		peer, ppt, ok := m.c.GlobalPeerOK(sw, gp)
		if !ok {
			continue // unwired slot (swap fixed point): nothing to kill
		}
		fresh := m.kill(sw, m.c.GlobalPort(gp))
		if m.kill(peer, m.c.GlobalPort(ppt)) || fresh {
			m.nGlobal++
		}
		gi, gj := g, m.c.GroupOf(peer)
		m.refreshLinks(gi, gj)
		m.refreshLinks(gj, gi)
	}
	return m.chans[mark:len(m.chans):len(m.chans)], nil
}

// ChannelDead reports whether the directed channel (sw, port) is
// dead. Terminal ports report the switch's own state, so injection
// and ejection checks can use the same query.
func (m *FailureMask) ChannelDead(sw, port int) bool {
	if port < m.c.P {
		return m.deadSw[sw]
	}
	return m.dead[sw*m.nonTerm+port-m.c.P]
}

// SwitchDead reports whether a whole switch has failed.
func (m *FailureMask) SwitchDead(sw int) bool { return m.deadSw[sw] }

// DeadDense exposes the dense channel-state array for hot loops that
// cannot afford a method call per hop: entry sw*(a-1+h) + (port-p)
// is true when the non-terminal channel (sw, port) is dead. The slice
// is shared and must not be modified.
func (m *FailureMask) DeadDense() []bool { return m.dead }

// LinksBetweenGroups is Topology.LinksBetweenGroups restricted to
// surviving links: the K links of the ordered pair minus any whose
// channel died. The returned slice is shared and must not be
// modified.
func (m *FailureMask) LinksBetweenGroups(gi, gj int) []GlobalLink {
	return m.links[gi*m.c.G+gj]
}

// DeadChannels returns every dead channel in kill order. The slice is
// shared and must not be modified.
func (m *FailureMask) DeadChannels() []Channel {
	return m.chans[:len(m.chans):len(m.chans)]
}

// Counts reports the failed global links, local links, and switches.
func (m *FailureMask) Counts() (globals, locals, switches int) {
	return m.nGlobal, m.nLocal, m.nSwitches
}

// String summarizes the mask for experiment output.
func (m *FailureMask) String() string {
	return fmt.Sprintf("fail(g=%d,l=%d,sw=%d)", m.nGlobal, m.nLocal, m.nSwitches)
}
