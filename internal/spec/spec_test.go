package spec

import (
	"strings"
	"testing"

	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/sweep"
	"tugal/internal/topo"
)

func TestTopologySpec(t *testing.T) {
	tp, err := Topology("4,8,4,9")
	if err != nil || tp.NumNodes() != 288 {
		t.Fatalf("topology: %v %v", tp, err)
	}
	tr, err := Topology("4,8,4,9,relative")
	if err != nil || tr.Net.(*topo.Dragonfly).Arr != topo.Relative {
		t.Fatalf("relative topology: %v %v", tr, err)
	}
	for _, bad := range []string{"", "4,8,4", "4,8,4,9,weird", "a,8,4,9", "4,8,4,12"} {
		if _, err := Topology(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestPolicySpec(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	cases := map[string]string{
		"full":         "VLB-all",
		"all":          "VLB-all",
		"strategic":    "strategic-2+3",
		"strategic:3":  "strategic-3+2",
		"capped:4":     "<=4-hop",
		"capped:4:0.5": "<=4-hop+50%5-hop",
	}
	for in, want := range cases {
		pol, err := Policy(tp, in, 1)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if pol.Name() != want {
			t.Fatalf("%q -> %q want %q", in, pol.Name(), want)
		}
	}
	for _, bad := range []string{"strategic:5", "strategic:6", "strategic:0", "strategic:x", "capped", "capped:9", "capped:4:2", "capped:4:NaN", "nope"} {
		if _, err := Policy(tp, bad, 1); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestPatternSpec(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	good := []string{
		"ur", "shift", "shift:2", "shift:2:1", "perm", "gperm",
		"mixed", "mixed:25", "tmixed:75", "tornado", "transpose",
		"bitcomp", "bitrev", "alltoall", "stencil3d", "hotspot",
		"hotspot:2:60", "ring@linear", "ring@group-rr",
		"halfshift@random", "pairs@switch-rr",
	}
	for _, s := range good {
		if _, err := Pattern(tp, s, 1); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
	for _, bad := range []string{"", "shift:x", "ring@nowhere", "warp@linear", "bogus"} {
		if _, err := Pattern(tp, bad, 1); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestRoutingSpec(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	pol := paths.Strategic{T: tp, FirstLeg: 2}
	cases := map[string][2]any{
		"min":       {"MIN", 4},
		"ugal-l":    {"UGAL-L", 4},
		"UGAL-G":    {"UGAL-G", 4},
		"ugal-pb":   {"UGAL-PB", 4},
		"par":       {"PAR", 5},
		"t-ugal-l":  {"T-UGAL-L", 4},
		"t-ugal-pb": {"T-UGAL-PB", 4},
		"t-par":     {"T-PAR", 5},
	}
	for in, want := range cases {
		rf, vcs, err := Routing(tp, in, pol)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if rf.Name() != want[0].(string) || vcs != want[1].(int) {
			t.Fatalf("%q -> %s/%d want %v", in, rf.Name(), vcs, want)
		}
	}
	if _, _, err := Routing(tp, "ospf", pol); err == nil {
		t.Fatal("accepted ospf")
	}
}

func TestFailuresSpec(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	if m, err := Failures(tp, ""); m != nil || err != nil {
		t.Fatalf("empty spec: %v %v (want nil mask, nil error)", m, err)
	}
	m, err := Failures(tp, "global:2:1, local:4:5 ,switch:8")
	if err != nil {
		t.Fatal(err)
	}
	g, l, sw := m.Counts()
	// The failed switch contributes its own global and local channels
	// on top of the two explicit link failures.
	if g != 1+tp.H || l != 1+(tp.A-1) || sw != 1 {
		t.Fatalf("counts g=%d l=%d sw=%d", g, l, sw)
	}
	if !m.SwitchDead(8) || m.SwitchDead(7) {
		t.Fatal("switch failure not applied to the right switch")
	}
	for _, bad := range []string{
		"global:2", "global:2:9", "local:4", "local:4:4", "switch:999",
		"switch:x", "link:1:2",
	} {
		if _, err := Failures(tp, bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	// Repeated failures are idempotent, not errors.
	m2, err := Failures(tp, "global:2:1,global:2:1")
	if err != nil {
		t.Fatal(err)
	}
	if g, _, _ := m2.Counts(); g != 1 {
		t.Fatalf("idempotent double failure counted %d globals", g)
	}
}

func TestSuiteLoadAndRun(t *testing.T) {
	const js = `{
	  "experiments": [{
	    "name": "smoke",
	    "topology": "2,4,2,9",
	    "pattern": "shift:1:0",
	    "routing": ["ugal-l", "t-ugal-l"],
	    "policy": "capped:4",
	    "rates": [0.05, 0.15],
	    "warmup": 1500, "measure": 1000, "drain": 2000
	  }]
	}`
	suite, err := LoadSuite(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	res, err := suite.Experiments[0].RunOn(exec.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.Points) != 2 {
			t.Fatalf("%s: points %d", c.Name, len(c.Points))
		}
		if c.Points[0].Saturated {
			t.Fatalf("%s saturated at 5%%", c.Name)
		}
	}
}

// TestSuiteValidation: every bad suite is an error naming the field —
// none reaches netsim to panic there or to size a timing wheel out of
// memory.
func TestSuiteValidation(t *testing.T) {
	const ok = `"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["min","par"],"rates":[0.1]`
	for _, c := range []struct{ js, field string }{
		{`{}`, "no experiments"},
		{`{"experiments":[{"name":"x","unknown":1}]}`, "unknown"},
		{`{"experiments":[{"topology":"2,4,2,9"}]}`, `"name"`},
		{`{"experiments":[{"name":"x"}]}`, `"topology"`},
		{`{"experiments":[{"name":"x","topology":"2,4,2,9"}]}`, `"pattern"`},
		{`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur"}]}`, `"routing"`},
		{`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["min"]}]}`, `"rates"`},
		{`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["min"],"rates":[2.0]}]}`, `"rates"`},
		{`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["min"],"rates":[0]}]}`, `"rates"`},
		{`{"experiments":[{"name":"x","topology":"2,4,2","pattern":"ur","routing":["min"],"rates":[0.1]}]}`, `"topology"`},
		{`{"experiments":[{"name":"x","topology":"dfly(1,64,64,2)","pattern":"ur","routing":["min"],"rates":[0.1]}]}`, `"topology"`},
		{`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"warp","routing":["min"],"rates":[0.1]}]}`, `"pattern"`},
		{`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["ospf"],"rates":[0.1]}]}`, `"routing"`},
		{`{"experiments":[{` + ok + `,"policy":"capped"}]}`, `"policy"`},
		{`{"experiments":[{` + ok + `,"localLatency":2000000000}]}`, `"localLatency"`},
		{`{"experiments":[{` + ok + `,"globalLatency":-1}]}`, `"globalLatency"`},
		{`{"experiments":[{` + ok + `,"vcs":40}]}`, `"vcs"`},
		{`{"experiments":[{` + ok + `,"vcs":-1}]}`, `"vcs"`},
		{`{"experiments":[{` + ok + `,"packetSize":9,"buffer":8}]}`, `"packetSize"`},
		{`{"experiments":[{` + ok + `,"buffer":129}]}`, `"buffer"`},
		{`{"experiments":[{` + ok + `,"speedup":-2}]}`, `"speedup"`},
		{`{"experiments":[{` + ok + `,"warmup":-5}]}`, `"warmup"`},
		{`{"experiments":[{` + ok + `,"measure":-1}]}`, `"measure"`},
		{`{"experiments":[{` + ok + `,"drain":-1}]}`, `"drain"`},
		{`{"experiments":[{` + ok + `,"seeds":-1}]}`, `"seeds"`},
		{`{"experiments":[{` + ok + `,"shards":-2}]}`, `"shards"`},
	} {
		_, err := LoadSuite(strings.NewReader(c.js))
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %v, want one naming %s", c.js, err, c.field)
		}
	}
	if _, err := LoadSuite(strings.NewReader(`{"experiments":[{` + ok + `,"localLatency":32767,"vcs":16,"buffer":128,"packetSize":128}]}`)); err != nil {
		t.Errorf("refused a suite at the bounds: %v", err)
	}
}

// TestResolveConfig: a resolved entry's config is Table 3
// (netsim.DefaultConfig) with the experiment's non-zero fields laid
// over it, and its VC count is the scheme's own budget unless the
// experiment sets vcs.
func TestResolveConfig(t *testing.T) {
	names := []string{"min", "vlb", "ugal-l", "ugal-g", "ugal-pb", "par", "t-ugal-l", "t-ugal-g", "t-ugal-pb", "t-par"}
	e := Experiment{Name: "x", Topology: "dfly(2,4,2,9)", Pattern: "ur", Routing: names, Rates: []float64{0.1}}
	r, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows != sweep.PaperWindows() || r.Seeds != 1 {
		t.Fatalf("default windows %+v, seeds %d", r.Windows, r.Seeds)
	}
	for i, en := range r.Entries {
		_, budget, _ := Routing(r.T, names[i], nil)
		want := netsim.DefaultConfig()
		want.NumVCs = budget
		if en.Config != want {
			t.Errorf("%s: config %+v, want Table 3 with %d VCs", names[i], en.Config, budget)
		}
	}
	e.VCs, e.Buffer, e.LocalLatency, e.GlobalLatency, e.Speedup, e.PacketSize, e.Shards, e.Seed = 6, 8, 40, 60, 1, 2, 3, 9
	e.Warmup, e.Measure, e.Drain, e.Seeds = 100, 200, 300, 4
	if r, err = e.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	want := netsim.Config{NumVCs: 6, BufSize: 8, LocalLatency: 40, GlobalLatency: 60, SpeedUp: 1, LatencyCap: netsim.DefaultConfig().LatencyCap, Seed: 9, PacketSize: 2, Shards: 3}
	for i, en := range r.Entries {
		if en.Config != want {
			t.Errorf("%s: config %+v, want %+v", names[i], en.Config, want)
		}
	}
	if r.Windows != (sweep.Windows{Warmup: 100, Measure: 200, Drain: 300}) || r.Seeds != 4 {
		t.Fatalf("windows %+v, seeds %d", r.Windows, r.Seeds)
	}
}
