package paths

import (
	"fmt"
	"slices"
	"strings"
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
	SampleMinAliveInto(tp, nil, r, 0, tp.SwitchID(4, 2), &buf)
	sw0 := &buf.Sw[0]
	for i := 0; i < 50; i++ {
		SampleMinAliveInto(tp, nil, r, 0, tp.SwitchID(4, 2), &buf)
		if err := ValidateMin(tp, buf); err != nil {
			t.Fatal(err)
		}
	}
	if &buf.Sw[0] != sw0 {
		t.Error("SampleMinAliveInto reallocated its buffer (capacity regression)")
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

// TestHopClass holds the per-length view of the word tables of Full and
// LengthCapped (Words.length, ByLength) to the Table-1 definition
// written out here (all paths up to MaxHops, a keyed Frac of the
// MaxHops+1 ones, nothing longer) for every hop count 0..6, the keyed
// verdict (allowsKeyed) to the hash draw written out here over 2000
// keys a length, and Contains to the keyed verdict on every real path
// out of one switch.
func TestHopClass(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	var real []Path
	for d := 1; d < tp.NumSwitches(); d++ {
		real = append(real, EnumerateVLB(tp, 0, d)...)
	}
	for _, pol := range []Policy{
		Full{T: tp},
		LengthCapped{T: tp, MaxHops: 3},
		LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7},
		LengthCapped{T: tp, MaxHops: 5, Frac: 0.9, Seed: 1},
		LengthCapped{T: tp, MaxHops: 6, Frac: 0.5, Seed: 2},
		LengthCapped{T: tp, MaxHops: 1, Frac: 0.5, Seed: 3},
		LengthCapped{T: tp, MaxHops: 1},
	} {
		w, _ := WordsOf(pol)
		l, capped := pol.(LengthCapped)
		lengths := map[int]bool{}
		for _, p := range real {
			lengths[p.Hops()] = true
			if pol.Contains(p.Src(), p.Dst(), p) != allowsKeyed(t, w, p.Hops(), p.Key()) {
				t.Fatalf("%s: Contains and the keyed verdict disagree on %v", pol.Name(), p)
			}
		}
		if len(lengths) != 5 {
			t.Fatalf("real paths cover lengths %v, want 2..6", lengths)
		}
		allBits, keyedBits, mixed := w.ByLength()
		if mixed != 0 {
			t.Fatalf("%s: lengths %b read by word", pol.Name(), mixed)
		}
		for hops := 0; hops <= MaxVLBHops; hops++ {
			all, some := allBits>>hops&1 != 0, keyedBits>>hops&1 != 0
			wantAll, wantSome := true, false
			if capped {
				wantAll, wantSome = hopClass(l, hops)
			}
			if all != wantAll || some != wantSome {
				t.Fatalf("%s: length %d reads (%v, %v), want (%v, %v)", pol.Name(), hops, all, some, wantAll, wantSome)
			}
			in := 0
			for k := uint64(0); k < 2000; k++ {
				key := rng.Hash64(k, uint64(hops))
				want := all
				if some {
					want = rng.Float01(rng.Mix(rng.Mix(rng.HashSeed, l.Seed), key)) < l.Frac
				}
				if allowsKeyed(t, w, hops, key) != want {
					t.Fatalf("%s: keyed verdict on (%d, %#x) = %v", pol.Name(), hops, key, !want)
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

// allowsKeyed is a table's verdict on a path from its hop count and
// identity hash alone, at a length whose words all answer alike.
func allowsKeyed(t *testing.T, w Words, hops int, key uint64) bool {
	c, ok := w.length(hops)
	if !ok {
		t.Fatalf("length %d is read by word", hops)
	}
	return c == admitAll || c == admitKeyed && w.draw.In(key)
}

// minShape reports whether a hop sequence has the inter-group MIN
// form (l?) g (l?): exactly one global hop, at most one local hop on
// each side. It is the definition Strategic tested its split against
// before the word table, kept with the rest of oracleContains.
func minShape(t *topo.Compiled, ports []int8) bool {
	if len(ports) < 1 || len(ports) > 3 {
		return false
	}
	gAt := -1
	for i, pt := range ports {
		if t.KindOfPort(int(pt)) == topo.Global {
			if gAt >= 0 {
				return false
			}
			gAt = i
		}
	}
	return gAt >= 0 && gAt <= 1 && len(ports)-1-gAt <= 1
}

// hopClass is LengthCapped's set by hop count as HopClass stated it:
// all paths of at most MaxHops hops, a keyed draw at MaxHops+1.
func hopClass(l LengthCapped, hops int) (all, some bool) {
	return hops <= l.MaxHops, hops == l.MaxHops+1 && l.Frac > 0
}

// oracleContains is the membership of the word policies as their own
// predicates stated it before one table held them, kept as the oracle
// the table is held to. Full admits every path. LengthCapped admits by
// hopClass, a keyed path when its key, mixed with the seed as Keyed
// mixed it, falls below Frac. Strategic admits every path of at most 4
// hops, and a 5-hop path of a pair in two groups when the switch
// FirstLeg hops in lies in a third group and splits the path into two
// MIN shapes (Strategic.splits).
func oracleContains(tp *topo.Compiled, pol Policy, src, dst int, p Path) bool {
	switch pol := pol.(type) {
	case Full:
		return true
	case LengthCapped:
		all, some := hopClass(pol, p.Hops())
		return all || some && rng.Float01(rng.Mix(rng.Mix(rng.HashSeed, pol.Seed), p.Key())) < pol.Frac
	case Strategic:
		if h := p.Hops(); h != 5 {
			return h <= 4
		}
		g, gs, gd := tp.GroupOf(int(p.Sw[pol.FirstLeg])), tp.GroupOf(src), tp.GroupOf(dst)
		return gs != gd && g != gs && g != gd &&
			minShape(tp, p.Ports[:pol.FirstLeg]) && minShape(tp, p.Ports[pol.FirstLeg:5])
	}
	panic("oracleContains: " + pol.Name() + " is not a word policy")
}

// legEndTopos are TestLegEndsCover's topologies: both families, one and
// several links per group pair.
func legEndTopos() []*topo.Compiled {
	return []*topo.Compiled{
		topo.MustNew(2, 4, 2, 9),
		topo.MustNew(2, 4, 4, 3), // parallel global links (h > g-1)
		topo.MustNew(2, 4, 2, 5),
		topo.MustNewD3(12, 4, 2),
		topo.MustNewD3(8, 4, 0),
	}
}

// legEndMask is degradedMask on the legEndTopos: one global link, one
// local link and one switch, the global link from the first switch at
// or after degradedMask's whose last global slot is wired (on D3 a
// switch's slot may not be).
func legEndMask(tp *topo.Compiled) *topo.FailureMask {
	m := topo.NewFailureMask(tp)
	for sw := tp.A / 2; ; sw++ {
		if _, err := m.FailGlobalLink(sw, tp.H-1); err == nil {
			break
		}
	}
	for _, sc := range failSteps()[1:] {
		sc.step(tp, m)
	}
	return m
}

// TestWordsMatchOracle holds the one word table to oracleContains on
// every VLB path of the legEndTopos, pristine and under legEndMask,
// for Full, four Table-1 points (two keyed) and both strategic sets, at
// each place the table is read: Contains on the built path, DropMask
// over the full store's legs, and the walk's per-leg-pair admission,
// asked of the legs the full walk joins into that path.
func TestWordsMatchOracle(t *testing.T) {
	for _, tp := range legEndTopos() {
		pols := []Policy{
			Full{T: tp},
			LengthCapped{T: tp, MaxHops: 3},
			LengthCapped{T: tp, MaxHops: 4},
			LengthCapped{T: tp, MaxHops: 4, Frac: 0.5, Seed: 7},
			LengthCapped{T: tp, MaxHops: 5, Frac: 0.3, Seed: 3},
			Strategic{T: tp, FirstLeg: 2},
			Strategic{T: tp, FirstLeg: 3},
		}
		for _, mask := range []*topo.FailureMask{nil, legEndMask(tp)} {
			t.Run(fmt.Sprintf("%s/degraded=%v", tp.Label(), mask != nil), func(t *testing.T) {
				full := CompileDegraded(tp, Full{T: tp}, mask)
				drops := make([]IDSet, len(pols))
				for i, pol := range pols {
					drops[i] = full.DropMask(pol)
				}
				n := tp.NumSwitches()
				in := make([]int, len(pols))
				var p Path
				verdicts := make([][]bool, len(pols))
				for s := 0; s < n; s++ {
					fw := newPolicyWalk(tp, Full{T: tp}, mask, s, nil)
					walks := make([]*policyWalk, len(pols))
					for i, pol := range pols {
						walks[i] = newPolicyWalk(tp, pol, mask, s, nil)
					}
					for d := 0; d < n; d++ {
						id, count := full.PairRange(s, d)
						end := id + PathID(count)
						for i := range pols {
							verdicts[i] = verdicts[i][:0]
							walks[i].pair(d, func(_, _ []Leg, in []bool, _ []uint64) { verdicts[i] = append(verdicts[i], in...) })
						}
						fw.visit(d, func(a, b *Leg) {
							p = materializeID(full, s, d, id)
							if !fw.v.path(a, b).Equal(p) {
								t.Fatalf("pair (%d,%d): the walk and the store disagree at path %d", s, d, id)
							}
							for i, pol := range pols {
								want := oracleContains(tp, pol, s, d, p)
								if got := pol.Contains(s, d, p); got != want {
									t.Fatalf("%s pair (%d,%d) %v: Contains %v, oracle %v", pol.Name(), s, d, p, got, want)
								}
								if got := !drops[i].Has(id); got != want {
									t.Fatalf("%s pair (%d,%d) %v: DropMask admits %v, oracle %v", pol.Name(), s, d, p, got, want)
								}
								if got := verdicts[i][full.offset(s*n+d, id)]; got != want {
									t.Fatalf("%s pair (%d,%d) %v: the walk admits %v, oracle %v", pol.Name(), s, d, p, got, want)
								}
								if want {
									in[i]++
								}
							}
							id++
						})
						if id != end {
							t.Fatalf("pair (%d,%d): the walk yields %d paths, the store holds %d", s, d, int(id-end)+count, count)
						}
					}
				}
				for i, pol := range pols {
					if _, strategic := pol.(Strategic); in[i] == 0 || strategic && in[i] == full.NumPaths() {
						t.Errorf("%s admits %d of %d paths", pol.Name(), in[i], full.NumPaths())
					}
				}
			})
		}
	}
}

// TestWordStructure pins the fact that lets a policy's table be over
// words alone, with no bit for a pair in one group: on the legEndTopos,
// pristine and under legEndMask, every VLB path of an in-group pair
// has the word ll, every inter-group one exactly two g hops, and the
// words found are the 13 of a Dragonfly or the 9 of D3.
func TestWordStructure(t *testing.T) {
	dragonfly := []string{"gg", "ggl", "glg", "glgl", "gllg", "gllgl", "lgg", "lggl", "lglg", "lglgl", "lgllg", "lgllgl", "ll"}
	d3 := []string{"glg", "glgl", "gllg", "gllgl", "lglg", "lglgl", "lgllg", "lgllgl", "ll"} // one global port a switch: no gg
	for _, tp := range legEndTopos() {
		want := dragonfly
		if tp.Family() == "d3" {
			want = d3
		}
		for _, mask := range []*topo.FailureMask{nil, legEndMask(tp)} {
			st := CompileDegraded(tp, Full{T: tp}, mask)
			seen := map[string]bool{}
			n := tp.NumSwitches()
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					first, count := st.PairRange(s, d)
					for id := first; id < first+PathID(count); id++ {
						w := wordString(tp, unpack(st.Ports(s, d, id)))
						seen[w] = true
						if same := tp.SameGroup(s, d); same && w != "ll" || !same && strings.Count(w, "g") != 2 {
							t.Fatalf("%s pair (%d,%d) in one group %v: word %s", tp.Label(), s, d, same, w)
						}
					}
				}
			}
			var got []string
			for w := range seen {
				got = append(got, w)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s degraded=%v: words %q, want %q", tp.Label(), mask != nil, got, want)
			}
		}
	}
}

// wordString spells a port sequence's word in l and g.
func wordString(tp *topo.Compiled, ports []int8) string {
	var b strings.Builder
	for _, pt := range ports {
		if tp.KindOfPort(int(pt)) == topo.Global {
			b.WriteByte('g')
		} else {
			b.WriteByte('l')
		}
	}
	return b.String()
}
