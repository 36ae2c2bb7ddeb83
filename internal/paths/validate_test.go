package paths

import (
	"fmt"
	"math/bits"

	"tugal/internal/topo"
)

// GlobalHops counts the global links on the path.
func GlobalHops(t *topo.Compiled, p Path) int { return bits.OnesCount(globals(t, p.Ports)) }

// Validate checks that the path is structurally sound: every hop uses
// a port of the stated kind that actually reaches the next switch.
func Validate(t *topo.Compiled, p Path) error {
	if len(p.Sw) == 0 {
		return fmt.Errorf("paths: empty path")
	}
	if len(p.Ports) != len(p.Sw)-1 {
		return fmt.Errorf("paths: %d ports for %d switches", len(p.Ports), len(p.Sw))
	}
	for i, pt := range p.Ports {
		u, v := int(p.Sw[i]), int(p.Sw[i+1])
		got, ok := t.PeerOfPortOK(u, int(pt))
		if !ok {
			return fmt.Errorf("paths: hop %d uses invalid port %d at switch %d", i, pt, u)
		}
		if got != v {
			return fmt.Errorf("paths: hop %d port %d of switch %d reaches %d, path says %d", i, pt, u, got, v)
		}
	}
	return nil
}

// ValidateMin additionally checks the MIN property (<=1 global hop).
func ValidateMin(t *topo.Compiled, p Path) error {
	if err := Validate(t, p); err != nil {
		return err
	}
	if GlobalHops(t, p) > 1 {
		return fmt.Errorf("paths: MIN path with %d global hops", GlobalHops(t, p))
	}
	return nil
}

// ValidateVLB additionally checks the VLB shape: <=2 global hops and
// hop count in [2, 6]. A VLB path may legitimately revisit one switch
// — when both legs' group-pair connector in the intermediate group is
// the same switch (always the case with one link per group pair, as
// on maximal Dragonflies), the path hairpins through it — but it may
// never use the same directed channel twice.
func ValidateVLB(t *topo.Compiled, p Path) error {
	if err := Validate(t, p); err != nil {
		return err
	}
	if g := GlobalHops(t, p); g > 2 {
		return fmt.Errorf("paths: VLB path with %d global hops", g)
	}
	if h := p.Hops(); h < 2 || h > MaxVLBHops {
		return fmt.Errorf("paths: VLB path with %d hops", h)
	}
	seen := make(map[int64]bool, len(p.Ports))
	for i, pt := range p.Ports {
		key := int64(p.Sw[i])<<8 | int64(pt)
		if seen[key] {
			return fmt.Errorf("paths: VLB path reuses channel (%d, port %d)", p.Sw[i], pt)
		}
		seen[key] = true
	}
	return nil
}
