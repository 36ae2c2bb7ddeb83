package netsim

import "fmt"

// size returns the number of slots ever allocated (live + free).
func (a *flitArena) size() int { return len(a.rec) }

// live returns the number of currently allocated slots.
func (a *flitArena) live() int { return len(a.rec) - len(a.free) }

// audit verifies flit conservation and the queue chains. Every
// non-empty input buffer's chain, walked from its qMeta head, must hold
// exactly the depth its cursors give and end at qTail when two or more
// deep; every source queue's chain holds its n slots and ends at its
// tail. No slot may be walked twice or be free, and the walked totals
// must equal each switch's flits and the source-queued count.
func (n *Network) audit() (inFlight int64, err error) {
	fa := &n.fa
	seen := make([]bool, fa.size())
	for _, s := range fa.free {
		seen[s] = true
	}
	// walk follows a chain of depth slots from s through live slots
	// not walked before; it must end at last unless last < 0.
	walk := func(what string, id int, s int32, depth int, last int32) error {
		for k := 0; k < depth; k++ {
			if k > 0 {
				s = fa.link[s].next
			}
			if s < 0 || int(s) >= len(seen) || seen[s] {
				return fmt.Errorf("netsim: %s %d: link %d of %d reaches slot %d, free or already queued", what, id, k, depth, s)
			}
			seen[s] = true
		}
		if last >= 0 && s != last {
			return fmt.Errorf("netsim: %s %d: chain of %d ends at slot %d, not its tail %d", what, id, depth, s, last)
		}
		return nil
	}
	qPerSw := n.ports * n.numVCs
	var buffered int64
	for sw, c := range n.flits {
		walked := 0
		for g := sw * qPerSw; g < (sw+1)*qPerSw; g++ {
			m := n.qMeta[g]
			depth := int(uint8(m>>8) - uint8(m))
			last := int32(-1)
			if depth >= 2 {
				last = n.qTail[g]
			}
			if err := walk("input queue", g, int32(uint32(m>>32)), depth, last); err != nil {
				return 0, err
			}
			walked += depth
		}
		if walked != int(c) {
			return 0, fmt.Errorf("netsim: switch %d: chains hold %d flits, flits counts %d", sw, walked, c)
		}
		buffered += int64(c)
	}
	var queued int64
	for i, q := range n.nodeQ {
		if q.n == 0 {
			continue
		}
		if err := walk("source queue", i, q.head, int(q.n), q.tail); err != nil {
			return 0, err
		}
		queued += int64(q.n)
	}
	// In-flight flits sit in the shards' wheel segments and, between
	// cycles, in the not-yet-merged mailboxes.
	var wheeled int64
	for s := range n.shards {
		sh := &n.shards[s]
		for _, bucket := range sh.wheel {
			for _, ev := range bucket {
				if ev.flit >= 0 {
					wheeled++
				}
			}
		}
		for _, box := range sh.outbox {
			for _, oe := range box {
				if oe.ev.flit >= 0 {
					wheeled++
				}
			}
		}
	}
	inFlight = buffered + queued + wheeled
	if n.injected != n.delivered+inFlight+n.refusedInj {
		return inFlight, fmt.Errorf("netsim: conservation violated: injected=%d delivered=%d inflight=%d refused=%d",
			n.injected, n.delivered, inFlight, n.refusedInj)
	}
	// Arena cross-check: every in-flight flit holds a live slot, and
	// no other slot is live.
	if live := int64(fa.live()); live != inFlight {
		return inFlight, fmt.Errorf("netsim: arena leak: %d live slots, %d flits in flight", live, inFlight)
	}
	return inFlight, nil
}
