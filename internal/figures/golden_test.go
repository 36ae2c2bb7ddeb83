package figures

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/spec"
	"tugal/internal/sweep"
)

// foldPoints folds every field of every point into h, FNV-1a style
// over 64-bit words: any change to any bit of any point moves it.
func foldPoints(h uint64, name string, pts []sweep.Point) uint64 {
	mix := func(w uint64) { h = (h ^ w) * 0x100000001b3 }
	for _, b := range []byte(name) {
		mix(uint64(b))
	}
	for _, p := range pts {
		for _, f := range []float64{p.Offered, p.Latency, p.LatencyErr, p.Throughput, p.VLBFraction, p.AvgHops} {
			mix(math.Float64bits(f))
		}
		if p.Saturated {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}

func foldResult(res *Result) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, s := range res.Series {
		h = foldPoints(h, s.Name, s.Points)
	}
	return h
}

// goldenFigures pins every simulation figure at ScaleBench, seed 1,
// one seed: a Float64bits fold over every sweep.Point field of every
// series, in series order, names included. Recorded from the last
// commit before Figures 6-18 became spec.Experiment values (each then
// built its own schemes and configs); fig17 was re-recorded by the
// commit that gave PAR its five VCs there, and by nothing else.
var goldenFigures = []struct {
	id    string
	short bool // kept under -short
	fold  uint64
}{
	{"fig6", true, 0x9f093c48e892116e},
	{"fig7", true, 0x451503644a034bc6},
	{"fig8", false, 0xfbbdadf4be46511f},
	{"fig9", false, 0x9e8b91daa74860c8},
	{"fig10", false, 0x289fcd2aaa084f1},
	{"fig11", false, 0x4c29acf3226cefaf},
	{"fig12", false, 0xc6c10d1c4c3f3282},
	{"fig13", false, 0x5750594c0d0115cf},
	{"fig14", false, 0x98a9fd17c7cc0213},
	{"fig15", false, 0x859e7f34cd6ba3dc},
	{"fig16", false, 0x671b7a1ddbe551e},
	{"fig17", false, 0x53be409c0835f241},
	{"fig18", true, 0x7a0bca3c3d9b0b20},
}

var benchOptions = Options{Scale: ScaleBench, Seed: 1, Seeds: 1}

// benchFigure runs a figure at benchOptions once for all the tests
// that read it (none of them runs in parallel).
func benchFigure(t *testing.T, id string) *Result {
	if res, ok := benchRuns[id]; ok {
		return res
	}
	res, err := Run(id, benchOptions)
	if err != nil {
		t.Fatal(err)
	}
	benchRuns[id] = res
	return res
}

var benchRuns = map[string]*Result{}

func TestGoldenFigures(t *testing.T) {
	for _, g := range goldenFigures {
		if testing.Short() && !g.short {
			continue
		}
		t.Run(g.id, func(t *testing.T) {
			res := benchFigure(t, g.id)
			if got := foldResult(res); got != g.fold {
				t.Errorf("%s fold = %#x, golden %#x", g.id, got, g.fold)
			}
		})
	}
}

// TestFigureIsASuite: a figure is its experiments and nothing else.
// Marshalled to suite JSON and run the way cmd/experiment runs a suite
// (LoadSuite, then RunOn per entry), every figure the grammar can
// express gives the curves Run gives, bit for bit, under the names Run
// gives them less the "(setting)" a sensitivity figure appends. Figure
// 18 is not expressible (routing.HopCountVC); Figures 13 and 14 are,
// and are left to their goldens: the same path on a topology that
// costs a minute a figure.
func TestFigureIsASuite(t *testing.T) {
	for _, g := range goldenFigures {
		if g.id == "fig13" || g.id == "fig14" || g.id == "fig18" || testing.Short() && !g.short {
			continue
		}
		t.Run(g.id, func(t *testing.T) {
			js, err := json.Marshal(spec.Suite{Experiments: experiments(g.id, benchOptions)})
			if err != nil {
				t.Fatal(err)
			}
			suite, err := spec.LoadSuite(bytes.NewReader(js))
			if err != nil {
				t.Fatalf("%s: %v", js, err)
			}
			var got []sweep.Curve
			for i := range suite.Experiments {
				res, err := suite.Experiments[i].RunOn(exec.Default())
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, res.Curves...)
			}
			want := benchFigure(t, g.id).Series
			if len(got) != len(want) {
				t.Fatalf("suite gave %d curves, figure %d", len(got), len(want))
			}
			for i, c := range got {
				name, _, _ := strings.Cut(want[i].Name, "(")
				if c.Name != name || foldPoints(0, "", c.Points) != foldPoints(0, "", want[i].Points) {
					t.Errorf("curve %d: suite %s %+v, figure %s %+v", i, c.Name, c.Points, want[i].Name, want[i].Points)
				}
			}
		})
	}
}

// TestFigureVCBudgets: at every scale, no figure runs a scheme on
// fewer VCs than the scheme's budget (Table 3: 4, and 5 for PAR) unless
// its experiment sets vcs, which only Figure 18 does — the figure that
// varies the VC scheme.
func TestFigureVCBudgets(t *testing.T) {
	for _, id := range All() {
		for _, scale := range []Scale{ScaleDemo, ScalePaper, ScaleBench} {
			for _, e := range experiments(id, Options{Scale: scale, Seed: 1, Seeds: 1}) {
				if (e.VCs != 0) != (id == "fig18") {
					t.Errorf("%s sets vcs %d", e.Name, e.VCs)
				}
				r, err := e.Resolve(nil)
				if err != nil {
					t.Fatal(err)
				}
				for i, en := range r.Entries {
					if _, budget, _ := spec.Routing(r.T, e.Routing[i], nil); e.VCs == 0 && en.Config.NumVCs != budget {
						t.Errorf("%s: %s on %d VCs, budget %d", e.Name, en.Routing.Name(), en.Config.NumVCs, budget)
					}
				}
			}
		}
	}
}
