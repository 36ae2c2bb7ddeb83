package paths

import (
	"math"
	"testing"
	"testing/quick"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

func TestEnumerateMinShape(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	n := tp.NumSwitches()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			ps := EnumerateMin(tp, s, d)
			switch {
			case s == d:
				if len(ps) != 1 || ps[0].Hops() != 0 {
					t.Fatalf("same-switch MIN wrong: %v", ps)
				}
			case tp.SameGroup(s, d):
				if len(ps) != 1 || ps[0].Hops() != 1 {
					t.Fatalf("same-group MIN wrong: %v", ps)
				}
			default:
				if len(ps) != tp.K {
					t.Fatalf("inter-group MIN count %d want %d", len(ps), tp.K)
				}
			}
			for _, p := range ps {
				if p.Src() != s || p.Dst() != d {
					t.Fatalf("MIN endpoints wrong: %v", p)
				}
				if err := ValidateMin(tp, p); err != nil {
					t.Fatalf("MIN invalid: %v", err)
				}
				if p.Hops() > 3 {
					t.Fatalf("MIN too long: %v", p)
				}
			}
		}
	}
}

func TestEnumerateVLBShape(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	s, d := 0, tp.SwitchID(3, 2)
	ps := EnumerateVLB(tp, s, d)
	if len(ps) == 0 {
		t.Fatal("no VLB paths")
	}
	gs, gd := tp.GroupOf(s), tp.GroupOf(d)
	for _, p := range ps {
		if err := ValidateVLB(tp, p); err != nil {
			t.Fatalf("VLB invalid: %v (%v)", err, p)
		}
		if p.Src() != s || p.Dst() != d {
			t.Fatalf("VLB endpoints wrong: %v", p)
		}
		// Must pass through a switch outside both endpoint groups.
		hasOutside := false
		for _, sw := range p.Sw {
			g := tp.GroupOf(int(sw))
			if g != gs && g != gd {
				hasOutside = true
			}
		}
		if !hasOutside {
			t.Fatalf("VLB path without outside intermediate: %v", p)
		}
	}
}

func TestIntraGroupVLB(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	ps := EnumerateVLB(tp, 0, 1)
	if len(ps) != tp.A-2 {
		t.Fatalf("intra-group VLB count %d want %d", len(ps), tp.A-2)
	}
	for _, p := range ps {
		if p.Hops() != 2 {
			t.Fatalf("intra-group VLB hop count %d", p.Hops())
		}
	}
}

func TestVLBHopRange(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	hist := CountVLBByHops(tp, 0, tp.SwitchID(5, 3))
	total := 0
	for h, c := range hist {
		if c > 0 && (h < 2 || h > 6) {
			t.Fatalf("VLB path of %d hops", h)
		}
		total += c
	}
	if total == 0 {
		t.Fatal("no VLB paths counted")
	}
	// On this topology the bulk of VLB paths are 6-hop, which is the
	// premise of the paper's motivation (§3.1).
	if hist[6] <= hist[4] {
		t.Errorf("expected 6-hop to dominate: %v", hist)
	}
}

func TestSampleMinMatchesEnumeration(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	r := rng.New(7)
	s, d := 1, tp.SwitchID(4, 0)
	want := map[uint64]bool{}
	for _, p := range EnumerateMin(tp, s, d) {
		want[p.Key()] = true
	}
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		p := SampleMin(tp, r, s, d)
		if !want[p.Key()] {
			t.Fatalf("sampled MIN not in enumeration: %v", p)
		}
		seen[p.Key()] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("sampling covered %d of %d MIN paths", len(seen), len(want))
	}
}

func TestFullPolicySampling(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	pol := Full{T: tp}
	r := rng.New(3)
	s, d := 0, tp.SwitchID(6, 1)
	want := map[uint64]bool{}
	for _, p := range pol.Enumerate(s, d) {
		want[p.Key()] = true
	}
	for i := 0; i < 500; i++ {
		p, ok := sampleVLB(pol, r, s, d)
		if !ok {
			t.Fatal("Full policy failed to sample")
		}
		if !want[p.Key()] {
			t.Fatalf("sampled VLB not in enumeration: %v", p)
		}
		if err := ValidateVLB(tp, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLengthCappedMembership(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	s, d := 0, tp.SwitchID(5, 3)
	all := EnumerateVLB(tp, s, d)
	for _, frac := range []float64{0, 0.3, 0.6, 1} {
		pol := LengthCapped{T: tp, MaxHops: 4, Frac: frac, Seed: 11}
		subset := pol.Enumerate(s, d)
		var nShort, nNext, nLong int
		for _, p := range subset {
			switch {
			case p.Hops() <= 4:
				nShort++
			case p.Hops() == 5:
				nNext++
			default:
				nLong++
			}
		}
		if nLong != 0 {
			t.Fatalf("frac=%.1f: %d paths beyond MaxHops+1", frac, nLong)
		}
		var allShort, allNext int
		for _, p := range all {
			if p.Hops() <= 4 {
				allShort++
			} else if p.Hops() == 5 {
				allNext++
			}
		}
		if nShort != allShort {
			t.Fatalf("frac=%.1f: short paths %d want all %d", frac, nShort, allShort)
		}
		got := float64(nNext) / float64(allNext)
		if math.Abs(got-frac) > 0.1 {
			t.Errorf("frac=%.2f: included fraction %.2f of 5-hop paths", frac, got)
		}
	}
}

func TestLengthCappedSamplingStaysInSet(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	pol := LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 5}
	r := rng.New(9)
	s, d := 0, tp.SwitchID(4, 2)
	for i := 0; i < 300; i++ {
		p, ok := sampleVLB(pol, r, s, d)
		if !ok {
			t.Fatal("sample failed")
		}
		if !pol.Contains(s, d, p) {
			t.Fatalf("sampled path outside policy set: %v (%d hops)", p, p.Hops())
		}
	}
}

func TestLengthCappedDeterministicAcrossInstances(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	a := LengthCapped{T: tp, MaxHops: 4, Frac: 0.4, Seed: 21}
	b := LengthCapped{T: tp, MaxHops: 4, Frac: 0.4, Seed: 21}
	s, d := 3, tp.SwitchID(7, 1)
	pa, pb := a.Enumerate(s, d), b.Enumerate(s, d)
	if len(pa) != len(pb) {
		t.Fatalf("same seed, different sets: %d vs %d", len(pa), len(pb))
	}
	c := LengthCapped{T: tp, MaxHops: 4, Frac: 0.4, Seed: 22}
	pc := c.Enumerate(s, d)
	same := len(pc) == len(pa)
	if same {
		for i := range pa {
			if !pa[i].Equal(pc[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical 5-hop subsets (suspicious)")
	}
}

func TestStrategicPolicy(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	s, d := 0, tp.SwitchID(5, 3)
	for _, firstLeg := range []int{2, 3} {
		pol := Strategic{T: tp, FirstLeg: firstLeg}
		for _, p := range pol.Enumerate(s, d) {
			if p.Hops() > 5 {
				t.Fatalf("strategic includes %d-hop path", p.Hops())
			}
			if p.Hops() == 5 {
				ok := false
				for _, split := range legSplits(tp, p) {
					if split[0] == firstLeg {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("5-hop path lacks %d+%d decomposition: %v", firstLeg, 5-firstLeg, p)
				}
			}
		}
	}
	// The 2+3 and 3+2 strategic sets must differ on 5-hop membership.
	a := Strategic{T: tp, FirstLeg: 2}.Enumerate(s, d)
	b := Strategic{T: tp, FirstLeg: 3}.Enumerate(s, d)
	keysA := map[uint64]bool{}
	for _, p := range a {
		if p.Hops() == 5 {
			keysA[p.Key()] = true
		}
	}
	diff := false
	for _, p := range b {
		if p.Hops() == 5 && !keysA[p.Key()] {
			diff = true
		}
	}
	if !diff {
		t.Error("strategic 2+3 and 3+2 sets identical")
	}
}

func TestExplicitRemoval(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	base := Full{T: tp}
	pol := NewExplicit(base)
	s, d := 0, tp.SwitchID(3, 1)
	all := base.Enumerate(s, d)
	victim := all[0]
	pol.Remove(victim)
	if pol.Contains(s, d, victim) {
		t.Fatal("removed path still contained")
	}
	left := pol.Enumerate(s, d)
	for _, p := range left {
		if p.Key() == victim.Key() {
			t.Fatal("removed path still enumerated")
		}
	}
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		p, ok := sampleVLB(pol, r, s, d)
		if ok && p.Key() == victim.Key() {
			t.Fatal("removed path still sampled")
		}
	}
}

// TestPathValidityProperty checks MIN and VLB validity over random
// pairs and topologies via testing/quick.
func TestPathValidityProperty(t *testing.T) {
	topos := []*topo.Compiled{
		topo.MustNew(2, 4, 2, 9),
		topo.MustNew(2, 4, 2, 5),
		topo.MustNew(1, 2, 1, 3),
		topo.MustNew(4, 8, 4, 17),
	}
	f := func(ti uint8, sSeed, dSeed uint16) bool {
		tp := topos[int(ti)%len(topos)]
		n := tp.NumSwitches()
		s := int(sSeed) % n
		d := int(dSeed) % n
		for _, p := range EnumerateMin(tp, s, d) {
			if ValidateMin(tp, p) != nil {
				return false
			}
		}
		for _, p := range EnumerateVLB(tp, s, d) {
			if ValidateVLB(tp, p) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPathKeyDistinguishesParallelLinks(t *testing.T) {
	// dfly(2,4,4,3) has h=4 > g-1=2: parallel links between the same
	// switch pair exist, so paths must be distinguished by ports.
	tp := topo.MustNew(2, 4, 4, 3)
	s, d := 0, tp.SwitchID(1, 0)
	ps := EnumerateMin(tp, s, d)
	if len(ps) != tp.K {
		t.Fatalf("MIN count %d want %d", len(ps), tp.K)
	}
	keys := map[uint64]bool{}
	for _, p := range ps {
		keys[p.Key()] = true
	}
	if len(keys) != len(ps) {
		t.Fatalf("path keys collide across parallel links: %d keys for %d paths", len(keys), len(ps))
	}
}

// join concatenates two MIN legs meeting at an intermediate switch.
// Switch revisits are allowed — a VLB path hairpins through the
// intermediate group's connector switch whenever both legs attach to
// it — but a join that would reuse a directed channel is rejected.
func join(leg1, leg2 Path) (Path, bool) {
	n := len(leg1.Ports) + len(leg2.Ports)
	p := Path{
		Sw:    make([]int32, 0, n+1),
		Ports: make([]int8, 0, n),
	}
	p.Sw = append(append(p.Sw, leg1.Sw...), leg2.Sw[1:]...)
	p.Ports = append(append(p.Ports, leg1.Ports...), leg2.Ports...)
	for i := range p.Ports {
		for j := i + 1; j < len(p.Ports); j++ {
			if p.Sw[i] == p.Sw[j] && p.Ports[i] == p.Ports[j] {
				return Path{}, false
			}
		}
	}
	return p, true
}

// naiveEnumerateVLBMax is the slice-per-path enumeration the package
// shipped before the visitor: every EnumerateMin leg pair through
// every intermediate, joined on the heap. It shares nothing with
// vlbVisitor beyond the topology queries, which makes it the oracle
// the visitor (and everything compiled through it) is checked
// against, enumeration order included.
func naiveEnumerateVLBMax(t *topo.Compiled, s, d, maxHops int) []Path {
	if s == d || maxHops < 2 {
		return nil
	}
	var out []Path
	if t.SameGroup(s, d) {
		g := t.GroupOf(s)
		for i := 0; i < t.A; i++ {
			m := t.SwitchID(g, i)
			if m == s || m == d {
				continue
			}
			out = append(out, Path{
				Sw:    []int32{int32(s), int32(m), int32(d)},
				Ports: []int8{int8(t.LocalPort(s, m)), int8(t.LocalPort(m, d))},
			})
		}
		return out
	}
	gs, gd := t.GroupOf(s), t.GroupOf(d)
	for gi := 0; gi < t.G; gi++ {
		if gi == gs || gi == gd {
			continue
		}
		for si := 0; si < t.A; si++ {
			inter := t.SwitchID(gi, si)
			legs1 := EnumerateMin(t, s, inter)
			legs2 := EnumerateMin(t, inter, d)
			for _, l1 := range legs1 {
				for _, l2 := range legs2 {
					if len(l1.Ports)+len(l2.Ports) > maxHops {
						continue
					}
					if p, ok := join(l1, l2); ok {
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// oracleTopos are the instances the visitor and the compile are
// differential-tested on: one link per group pair, parallel links
// (h > g-1), no intra-group detour (a < 3), the second family, and —
// outside -short — the paper's g9 machine.
func oracleTopos() []*topo.Compiled {
	ts := []*topo.Compiled{
		topo.MustNew(2, 4, 2, 5),
		topo.MustNew(2, 4, 2, 9),
		topo.MustNew(2, 4, 4, 3),
		topo.MustNew(1, 2, 1, 3),
		topo.MustNewD3(12, 4, 2),
	}
	if !testing.Short() {
		ts = append(ts, topo.MustNew(4, 8, 4, 9))
	}
	return ts
}

// TestVisitorMatchesNaiveEnumeration checks EnumerateVLBMax — the
// visitor with a cloning callback — against the naive oracle: same
// paths, same order, at every hop cap, and CountVLBByHops against the
// oracle's histogram. On g9 a few source rows stand in for all 72.
func TestVisitorMatchesNaiveEnumeration(t *testing.T) {
	for _, tp := range oracleTopos() {
		n := tp.NumSwitches()
		step := 1
		if n > 48 {
			step = 29
		}
		for s := 0; s < n; s += step {
			for d := 0; d < n; d++ {
				for maxHops := 1; maxHops <= MaxVLBHops; maxHops++ {
					want := naiveEnumerateVLBMax(tp, s, d, maxHops)
					got := EnumerateVLBMax(tp, s, d, maxHops)
					if len(got) != len(want) {
						t.Fatalf("%s pair (%d,%d) cap %d: %d paths, oracle %d",
							tp.Label(), s, d, maxHops, len(got), len(want))
					}
					for i := range want {
						if !got[i].Equal(want[i]) {
							t.Fatalf("%s pair (%d,%d) cap %d path %d: %v (ports %v), oracle %v (ports %v)",
								tp.Label(), s, d, maxHops, i, got[i], got[i].Ports, want[i], want[i].Ports)
						}
					}
				}
				var hist [MaxVLBHops + 1]int
				for _, p := range naiveEnumerateVLBMax(tp, s, d, MaxVLBHops) {
					hist[p.Hops()]++
				}
				if got := CountVLBByHops(tp, s, d); got != hist {
					t.Fatalf("%s pair (%d,%d): hop histogram %v, oracle %v", tp.Label(), s, d, got, hist)
				}
			}
		}
	}
}

// TestCountMinAlive checks the non-building MIN count against the
// enumeration it stands in for, pristine and under a failure mask.
func TestCountMinAlive(t *testing.T) {
	for _, tp := range oracleTopos() {
		for _, mask := range []*topo.FailureMask{nil, degradedMask(tp)} {
			for s := 0; s < tp.NumSwitches(); s++ {
				for d := 0; d < tp.NumSwitches(); d++ {
					if got, want := CountMinAlive(tp, mask, s, d), len(EnumerateMinAlive(tp, mask, s, d)); got != want {
						t.Fatalf("%s mask %v pair (%d,%d): CountMinAlive = %d, enumeration has %d", tp.Label(), mask, s, d, got, want)
					}
				}
			}
		}
	}
}

// sampleVLB is pol.SampleVLBInto into a fresh Path.
func sampleVLB(pol Policy, r *rng.Source, s, d int) (Path, bool) {
	var p Path
	ok := pol.SampleVLBInto(r, s, d, &p)
	return p, ok
}
