package spec

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/topo"
)

// FuzzTopology: any spec string is an error or an instance inside
// topo.Compile's limits that passes the family validation — never a
// panic, never an arena past the budget.
func FuzzTopology(f *testing.F) {
	for _, s := range []string{
		"4,8,4,9", "4,8,4,9,relative", "dfly(2,4,2,5)", "dfly(4,8,4,17,absolute)",
		"d3(8,4)", "d3(12,4,2)", " dragonfly( 1, 2, 1, 3 ) ",
		"", "4,8,4", "4,8,4,9,weird", "a,8,4,9", "4,8,4,12", "torus(4,4)", "d3(8)", "dfly(",
		"dfly(1,100000,100000,2)", "dfly(1,40000,1,40001)", "d3(254,2)",
		"dfly(1,64,64,2)", "dfly(9223372036854775807,2,1,2)", "dfly(1,4294967296,4294967296,2)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := Topology(s)
		if err != nil {
			return
		}
		if tp.Radix() > topo.MaxRadix || tp.G > topo.MaxGroups || tp.NumSwitches() > topo.MaxSwitches ||
			tp.NumSwitches()*(tp.A-1+tp.H) > topo.MaxPeerSlots {
			t.Fatalf("%q compiled past the limits: %+v", s, tp.Schema)
		}
		if err := tp.Validate(); err != nil {
			t.Fatalf("%q compiled but does not validate: %v", s, err)
		}
	})
}

// FuzzFailures: any failure spec applied to a clone of a degraded mask
// is refused — and then the mask it was cloned from is untouched, which
// is what makes POST /fail atomic — or is applied, and then its delta
// is exactly the channels that died, Failures agrees with ApplyFailures
// on a fresh mask, and applying it again kills nothing.
func FuzzFailures(f *testing.F) {
	for _, s := range []string{
		"global:2:1, local:4:5 ,switch:8", "global:2:1,global:2:1", "switch:0", "local:0:1",
		"global:2", "global:2:9", "local:4", "local:4:4", "switch:999", "switch:x", "link:1:2",
		"global:1:0,bogus", "", ",", "switch:-1", "global:99999999999999999999:0", "local:0:4",
	} {
		f.Add(s)
	}
	tp := topo.MustNew(2, 4, 2, 9)
	base := topo.NewFailureMask(tp)
	if _, err := ApplyFailures(base, "global:0:0,switch:5"); err != nil {
		f.Fatal(err)
	}
	baseDead := slices.Clone(base.DeadDense())
	baseChans := slices.Clone(base.DeadChannels())
	baseSummary := base.String()

	f.Fuzz(func(t *testing.T, s string) {
		m := base.Clone()
		delta, err := ApplyFailures(m, s)
		if !slices.Equal(base.DeadDense(), baseDead) || !slices.Equal(base.DeadChannels(), baseChans) || base.String() != baseSummary {
			t.Fatalf("%q applied to a clone changed the original (err=%v)", s, err)
		}
		// Items are validated against the topology, not the mask, so what
		// a degraded mask accepts a pristine one accepts too. (An empty
		// spec is Failures' "no mask", not an item.)
		fresh, ferr := Failures(tp, s)
		if (ferr != nil) != (err != nil) && strings.TrimSpace(s) != "" {
			t.Fatalf("%q: ApplyFailures err=%v, Failures err=%v", s, err, ferr)
		}
		if ferr != nil && fresh != nil {
			t.Fatalf("%q: Failures returned a mask with its error", s)
		}
		if err != nil {
			return
		}
		if got := len(m.DeadChannels()) - len(baseChans); got != len(delta) {
			t.Fatalf("%q: delta of %d channels, mask grew by %d", s, len(delta), got)
		}
		for _, ch := range delta {
			if !m.ChannelDead(int(ch.Sw), int(ch.Port)) {
				t.Fatalf("%q: delta channel %v is alive", s, ch)
			}
		}
		if again, err := ApplyFailures(m, s); err != nil || len(again) != 0 {
			t.Fatalf("%q applied twice: %d newly dead, err=%v", s, len(again), err)
		}
	})
}

// FuzzLoadSuite: any bytes are refused or become a suite every
// experiment of which passes the static check (Resolve on no pool: no
// compile, no simulation) into something netsim and sweep can size
// their arrays from — parts named, rates inside (0,1], a capped policy's
// fraction inside [0,1], windows and seed count sane, every entry's
// config inside netsim's bounds — never a
// panic, never an out-of-memory wheel. The decoder reads fields it
// knows into slices the input spelled out, so what it allocates is
// bounded by the input.
func FuzzLoadSuite(f *testing.F) {
	for _, js := range []string{
		`{"experiments":[{"name":"smoke","topology":"2,4,2,9","pattern":"shift:1:0","routing":["ugal-l","t-ugal-l"],"policy":"capped:4","rates":[0.05,0.15],"warmup":1500,"measure":1000,"drain":2000}]}`,
		`{}`,
		`{"experiments":[{"name":"x"}]}`,
		`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["min"],"rates":[2.0]}]}`,
		`{"experiments":[{"name":"x","unknown":1}]}`,
		`{"experiments":[{"name":"x","topology":"d3(8,4)","pattern":"ur","routing":["min"],"rates":[0.1],"seeds":-1,"warmup":-5,"buffer":-3}]}`,
		`{"experiments":[{"name":"x","topology":"d3(8,4)","pattern":"ur","routing":["min"],"rates":[0.1],"shards":-2}]}`,
		`{"experiments":[{"name":"x","topology":"t","pattern":"p","routing":["r"],"rates":[1e-320],"vcs":99999999999}]}`,
		`{"experiments":[{"name":"x","topology":"d3(8,4)","pattern":"ur","routing":["par"],"rates":[1e-320],"vcs":40}]}`,
		`{"experiments":[{"name":"x","topology":"d3(8,4)","pattern":"ur","routing":["min"],"rates":[0.1],"localLatency":2000000000}]}`,
		`{"experiments":[{"name":"x","topology":"d3(8,4)","pattern":"ur","routing":["min"],"rates":[0.1],"packetSize":9,"buffer":8}]}`,
		`{"experiments":[`, `[]`, `null`, ``,
		`{"experiments":[{"name":"x","topology":"d3(8,4)","pattern":"ur","routing":["t-ugal-l"],"rates":[0.1],"policy":"capped:3:NaN"}]}`,
		`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["t-ugal-l"],"rates":[0.1],"policy":"full:3"}]}`,
		`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["t-ugal-l"],"rates":[0.1],"policy":"all:x"}]}`,
		`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["t-ugal-l"],"rates":[0.1],"policy":"strategic:2:9"}]}`,
		`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["t-ugal-l"],"rates":[0.1],"policy":"capped:4:0.5:1"}]}`,
		`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["t-ugal-l"],"rates":[0.1],"policy":"capped:6:0.5"}]}`,
	} {
		f.Add([]byte(js))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		suite, err := LoadSuite(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(suite.Experiments) == 0 {
			t.Fatal("accepted a suite with no experiments")
		}
		for _, e := range suite.Experiments {
			if e.Name == "" || e.Topology == "" || e.Pattern == "" || len(e.Routing) == 0 || len(e.Rates) == 0 {
				t.Fatalf("accepted an experiment with a part missing: %+v", e)
			}
			for _, r := range e.Rates {
				if !(r > 0 && r <= 1) {
					t.Fatalf("%q: accepted rate %v", e.Name, r)
				}
			}
			r, err := e.Resolve(nil)
			if err != nil {
				t.Fatalf("%q: loaded, then refused: %v", e.Name, err)
			}
			if pol, err := Policy(r.T, e.Policy, 0); err != nil {
				t.Fatalf("%q: resolved, then its policy %q is refused: %v", e.Name, e.Policy, err)
			} else if lc, ok := pol.(paths.LengthCapped); ok && !(lc.Frac >= 0 && lc.Frac <= 1) {
				t.Fatalf("%q: accepted policy %q with fraction %v", e.Name, e.Policy, lc.Frac)
			}
			if w := r.Windows; w.Warmup < 0 || w.Measure <= 0 || w.Drain < 0 || r.Seeds < 1 || len(r.Entries) != len(e.Routing) || r.T.Radix() > 64 {
				t.Fatalf("%q: resolved to windows %+v, %d seeds, %d entries, radix %d", e.Name, w, r.Seeds, len(r.Entries), r.T.Radix())
			}
			for _, en := range r.Entries {
				c := en.Config
				if c.NumVCs < 1 || c.NumVCs > 16 || c.BufSize < 1 || c.BufSize > 128 || c.SpeedUp < 1 ||
					c.LocalLatency < 0 || c.LocalLatency > netsim.MaxLatency || c.GlobalLatency < 0 || c.GlobalLatency > netsim.MaxLatency || c.Shards < 0 {
					t.Fatalf("%q: %s resolved to a config netsim refuses: %+v", e.Name, en.Routing.Name(), c)
				}
			}
		}
	})
}
