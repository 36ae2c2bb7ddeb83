package paths

import (
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

// TestGoldenInterpretedSampling pins the interpreted restricted
// samplers draw for draw: 10 000 SampleVLBInto calls per policy over
// random pairs, every sampled path's identity and the generator's
// state afterwards folded into one word. LengthCapped{3, 0} accepts so
// few draws on these instances that the shortest-seen fallback runs in
// a good share of the calls, so its choice is pinned too. The words
// were captured from the per-policy rejection loops before they became
// one shared sampler.
func TestGoldenInterpretedSampling(t *testing.T) {
	for _, tc := range []struct {
		tp   *topo.Compiled
		want map[string]uint64
	}{
		{topo.MustNew(2, 4, 2, 9), map[string]uint64{
			"strategic-2+3":              0x9a08a0eae49d8046,
			"strategic-3+2":              0x49bd52f77e3caa24,
			"<=3-hop":                    0x2d81639be66511e5,
			"<=4-hop+30%5-hop":           0x19c35142a98b27b4,
			"explicit(strategic-2+3)":    0xcd7fb56deb20d195,
			"explicit(<=4-hop+30%5-hop)": 0xda063cb00f3dbbf5,
		}},
		{topo.MustNewD3(12, 4, 2), map[string]uint64{
			"strategic-2+3":              0xf9d112e1aae2ad7e,
			"strategic-3+2":              0x84597e04e60e9acc,
			"<=3-hop":                    0x22245d5d84ee6f9d,
			"<=4-hop+30%5-hop":           0x1800f7a28c068e98,
			"explicit(strategic-2+3)":    0x99ed9713622939ba,
			"explicit(<=4-hop+30%5-hop)": 0x36e362ef833e6542,
		}},
	} {
		tp := tc.tp
		capped := LengthCapped{T: tp, MaxHops: 4, Frac: 0.3, Seed: 7}
		pols := map[string]Policy{
			"strategic-2+3":    Strategic{T: tp, FirstLeg: 2},
			"strategic-3+2":    Strategic{T: tp, FirstLeg: 3},
			"<=3-hop":          LengthCapped{T: tp, MaxHops: 3},
			"<=4-hop+30%5-hop": capped,
		}
		for _, base := range []Policy{Strategic{T: tp, FirstLeg: 2}, capped} {
			pols["explicit("+base.Name()+")"] = thinned(tp, base)
		}
		for name, pol := range pols {
			if got := foldDraws(tp, pol, 10000); got != tc.want[name] {
				t.Errorf("%s, %s: fold of 10000 draws = %#x, golden %#x", tp.Label(), name, got, tc.want[name])
			}
		}
	}
}

// thinned wraps base with a removal set of every third path of every
// fifth pair: large enough that draws are rejected, never a whole
// pair.
func thinned(tp *topo.Compiled, base Policy) *Explicit {
	ex := NewExplicit(base)
	n := tp.NumSwitches()
	for pi := 0; pi < n*n; pi += 5 {
		for i, p := range base.Enumerate(pi/n, pi%n) {
			if i%3 == 1 {
				ex.Remove(p)
			}
		}
	}
	if len(ex.Removed) == 0 {
		panic("thinned: nothing removed")
	}
	return ex
}

// foldDraws samples pol over draws random pairs from one generator and
// folds what came back.
func foldDraws(tp *topo.Compiled, pol Policy, draws int) uint64 {
	r := rng.New(20261001)
	n := tp.NumSwitches()
	h := rng.HashSeed
	var p Path
	for i := 0; i < draws; i++ {
		s, d := r.Intn(n), r.Intn(n)
		if pol.SampleVLBInto(r, s, d, &p) {
			h = rng.Mix(h, p.Key())
		} else {
			h = rng.Mix(h, 0)
		}
	}
	return rng.Mix(h, r.Uint64())
}
