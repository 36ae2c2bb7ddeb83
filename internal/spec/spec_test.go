package spec

import (
	"strings"
	"testing"

	"tugal/internal/paths"
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
	for _, bad := range []string{"strategic:5", "strategic:6", "strategic:0", "strategic:x", "capped", "capped:9", "capped:4:2", "nope"} {
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
	res, err := suite.Experiments[0].Run()
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

func TestSuiteValidation(t *testing.T) {
	bad := []string{
		`{}`,
		`{"experiments":[{"name":"x"}]}`,
		`{"experiments":[{"name":"x","topology":"2,4,2,9","pattern":"ur","routing":["min"],"rates":[2.0]}]}`,
		`{"experiments":[{"name":"x","unknown":1}]}`,
	}
	for _, js := range bad {
		if _, err := LoadSuite(strings.NewReader(js)); err == nil {
			t.Fatalf("accepted %s", js)
		}
	}
}
