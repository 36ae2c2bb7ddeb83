package paths

import (
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

func TestLegSplits(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	// Build a concrete 5-hop path of shape "l g l g l" via
	// enumeration and check its decompositions.
	s, d := 0, tp.SwitchID(5, 3)
	var lglgl, gllgl Path
	for _, p := range EnumerateVLB(tp, s, d) {
		if p.Hops() != 5 {
			continue
		}
		kinds := make([]topo.PortKind, 5)
		for i, pt := range p.Ports {
			kinds[i] = tp.KindOfPort(int(pt))
		}
		switch {
		case kinds[0] == topo.Local && kinds[1] == topo.Global &&
			kinds[2] == topo.Local && kinds[3] == topo.Global && lglgl.Sw == nil:
			lglgl = p
		case kinds[0] == topo.Global && kinds[1] == topo.Local &&
			kinds[2] == topo.Local && gllgl.Sw == nil:
			gllgl = p
		}
	}
	if lglgl.Sw == nil {
		t.Fatal("no l-g-l-g-l path found")
	}
	splits := legSplits(tp, lglgl)
	has := func(sp [2]int) bool {
		for _, s := range splits {
			if s == sp {
				return true
			}
		}
		return false
	}
	// "l g l g l" decomposes both as 2+3 and 3+2.
	if !has([2]int{2, 3}) || !has([2]int{3, 2}) {
		t.Fatalf("lglgl splits %v, want both 2+3 and 3+2", splits)
	}
	if gllgl.Sw != nil {
		// "g l l g l" is only a 2+3 composition.
		sp := legSplits(tp, gllgl)
		if len(sp) != 1 || sp[0] != [2]int{2, 3} {
			t.Fatalf("gllgl splits %v, want only 2+3", sp)
		}
	}
}

func TestMinShape(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	s, d := 0, tp.SwitchID(3, 5)
	for _, p := range EnumerateMin(tp, s, d) {
		if !minShape(tp, p.Ports) {
			t.Fatalf("MIN path rejected by minShape: %v", p)
		}
	}
	// Two locals before a global is not a MIN shape.
	local := int8(tp.LocalPort(0, 1))
	local2 := int8(tp.LocalPort(1, 2))
	global := int8(tp.GlobalPort(0))
	if minShape(tp, []int8{local, local2, global}) {
		t.Fatal("l-l-g accepted as MIN shape")
	}
	if minShape(tp, []int8{local}) {
		t.Fatal("pure-local accepted as inter-group MIN shape")
	}
}

func TestGlobalHops(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	s, d := 0, tp.SwitchID(4, 2)
	for _, p := range EnumerateMin(tp, s, d) {
		if GlobalHops(tp, p) != 1 {
			t.Fatalf("MIN global hops %d", GlobalHops(tp, p))
		}
	}
	for _, p := range EnumerateVLB(tp, s, d) {
		if g := GlobalHops(tp, p); g != 2 {
			t.Fatalf("inter-group VLB global hops %d", g)
		}
	}
}

func TestPathCloneEqual(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	p := EnumerateMin(tp, 0, tp.SwitchID(3, 1))[0]
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q.Ports[0]++
	if p.Equal(q) {
		t.Fatal("mutated clone still equal")
	}
	if p.Equal(Path{Sw: p.Sw[:1]}) {
		t.Fatal("different lengths equal")
	}
}

func TestSampleMinIntoReusesStorage(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	r := rng.New(3)
	var buf Path
	SampleMinInto(tp, r, 0, tp.SwitchID(4, 2), &buf)
	sw0 := &buf.Sw[0]
	for i := 0; i < 50; i++ {
		SampleMinInto(tp, r, 0, tp.SwitchID(4, 2), &buf)
		if err := ValidateMin(tp, buf); err != nil {
			t.Fatal(err)
		}
	}
	if &buf.Sw[0] != sw0 {
		t.Error("SampleMinInto reallocated its buffer (capacity regression)")
	}
}

func TestIntraGroupSampling(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	pol := Full{T: tp}
	r := rng.New(5)
	for i := 0; i < 100; i++ {
		p, ok := sampleVLB(pol, r, 0, 2)
		if !ok || p.Hops() != 2 {
			t.Fatalf("intra-group VLB sample: %v %v", p, ok)
		}
		mid := int(p.Sw[1])
		if !tp.SameGroup(mid, 0) || mid == 0 || mid == 2 {
			t.Fatalf("bad intra-group intermediate %d", mid)
		}
	}
	// a=2 topologies have no intra-group detour.
	t2 := topo.MustNew(1, 2, 1, 3)
	if _, ok := sampleVLB(Full{T: t2}, r, 0, 1); ok {
		t.Fatal("a=2 intra-group VLB should not exist")
	}
}

// TestInterpretedSamplingAllocs: an interpreted policy is sampled once
// per packet on the topologies too large to compile (Figures 13/14), so
// no draw may allocate — not a rejected one either, whose path the
// shortest-seen fallback has to remember. <=3-hop on this pair takes
// the fallback in most calls.
func TestInterpretedSamplingAllocs(t *testing.T) {
	tp := topo.MustNew(4, 8, 4, 9)
	s, d := 0, 40
	bases := []Policy{
		Full{T: tp},
		Strategic{T: tp, FirstLeg: 2},
		Strategic{T: tp, FirstLeg: 3},
		LengthCapped{T: tp, MaxHops: 3},
		LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7},
	}
	pols := bases
	for _, base := range bases {
		ex := NewExplicit(base)
		for i, p := range base.Enumerate(s, d) {
			if i%3 == 1 {
				ex.Remove(p)
			}
		}
		pols = append(pols, ex)
	}
	for _, pol := range pols {
		r := rng.New(9)
		buf := Path{Sw: make([]int32, 0, MaxVLBHops+1), Ports: make([]int8, 0, MaxVLBHops)}
		allocs := testing.AllocsPerRun(2000, func() {
			if !pol.SampleVLBInto(r, s, d, &buf) {
				t.Fatalf("%s: pair (%d,%d) has no candidate", pol.Name(), s, d)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per draw, want 0", pol.Name(), allocs)
		}
	}
}

// TestNewStrategicChecksFirstLeg: a 5-hop path splits into two MIN legs
// only 2+3 or 3+2. Any other first leg used to name a set it was not
// (strategic-0+5 was the <=4-hop set) or, at 6, index past the path.
func TestNewStrategicChecksFirstLeg(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	for leg := -1; leg <= 7; leg++ {
		pol, err := NewStrategic(tp, leg)
		if want := leg == 2 || leg == 3; (err == nil) != want {
			t.Errorf("NewStrategic(%d): err = %v", leg, err)
		} else if want && pol != (Strategic{T: tp, FirstLeg: leg}) {
			t.Errorf("NewStrategic(%d) = %+v", leg, pol)
		}
	}
}

// legSplits returns the valid (first leg, second leg) hop-length
// decompositions of a VLB path: splits at an intermediate-group
// switch where both halves have a legal MIN shape (at most one local
// hop, one global hop, at most one local hop). It is the slice-building
// definition Strategic shipped before it tested its one split point in
// place, kept as the oracle for Strategic.Contains and AllowsStored.
func legSplits(t *topo.Compiled, p Path) [][2]int {
	var out [][2]int
	if p.Hops() < 2 {
		return out
	}
	if t.SameGroup(p.Src(), p.Dst()) {
		// In-group detour: the middle switch splits 1+1.
		return append(out, [2]int{1, p.Hops() - 1})
	}
	gs := t.GroupOf(p.Src())
	gd := t.GroupOf(p.Dst())
	for i, sw := range p.Sw {
		g := t.GroupOf(int(sw))
		if g != gs && g != gd &&
			minShape(t, p.Ports[:i]) && minShape(t, p.Ports[i:]) {
			out = append(out, [2]int{i, p.Hops() - i})
		}
	}
	return out
}

// TestHopClass holds the three statements of a keyed filter together
// on both implementers, for every hop count 0..6: HopClass against the
// Table-1 definition written out here (all paths up to MaxHops, a keyed
// Frac of the MaxHops+1 ones, nothing longer), AllowsKeyed against
// HopClass and the hash draw over 2000 keys a length, and Contains
// against AllowsKeyed on every real path out of one switch.
func TestHopClass(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	var real []Path
	for d := 1; d < tp.NumSwitches(); d++ {
		real = append(real, EnumerateVLB(tp, 0, d)...)
	}
	for _, kf := range []KeyedFilter{
		Full{T: tp},
		LengthCapped{T: tp, MaxHops: 3},
		LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7},
		LengthCapped{T: tp, MaxHops: 5, Frac: 0.9, Seed: 1},
		LengthCapped{T: tp, MaxHops: 6, Frac: 0.5, Seed: 2},
		LengthCapped{T: tp, MaxHops: 1, Frac: 0.5, Seed: 3},
		LengthCapped{T: tp, MaxHops: 1},
	} {
		pol := kf.(Policy)
		l, capped := kf.(LengthCapped)
		lengths := map[int]bool{}
		for _, p := range real {
			lengths[p.Hops()] = true
			if pol.Contains(p.Src(), p.Dst(), p) != kf.AllowsKeyed(p.Hops(), p.Key()) {
				t.Fatalf("%s: Contains and AllowsKeyed disagree on %v", pol.Name(), p)
			}
		}
		if len(lengths) != 5 {
			t.Fatalf("real paths cover lengths %v, want 2..6", lengths)
		}
		for hops := 0; hops <= MaxVLBHops; hops++ {
			all, some := kf.HopClass(hops)
			wantAll, wantSome := true, false
			if capped {
				wantAll, wantSome = hops <= l.MaxHops, hops == l.MaxHops+1 && l.Frac > 0
			}
			if all != wantAll || some != wantSome {
				t.Fatalf("%s: HopClass(%d) = (%v, %v), want (%v, %v)", pol.Name(), hops, all, some, wantAll, wantSome)
			}
			in := 0
			for k := uint64(0); k < 2000; k++ {
				key := rng.Hash64(k, uint64(hops))
				want := all
				if some {
					want = rng.Float01(rng.Mix(rng.Mix(rng.HashSeed, l.Seed), key)) < l.Frac
				}
				if kf.AllowsKeyed(hops, key) != want {
					t.Fatalf("%s: AllowsKeyed(%d, %#x) = %v", pol.Name(), hops, key, !want)
				}
				if want {
					in++
				}
			}
			if frac := float64(in) / 2000; some && (frac < l.Frac-0.05 || frac > l.Frac+0.05) {
				t.Errorf("%s: %.3f of the %d-hop keys are in, want about %v", pol.Name(), frac, hops, l.Frac)
			}
		}
	}
}
