package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/routing"
	"tugal/internal/sweep"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// Suite is a JSON-defined batch of experiments for cmd/experiment.
//
//	{
//	  "experiments": [{
//	    "name": "adv-g9",
//	    "topology": "dfly(4,8,4,9)",
//	    "pattern": "shift:2:0",
//	    "routing": ["ugal-l", "t-ugal-l"],
//	    "policy": "strategic:2",
//	    "rates": [0.05, 0.1, 0.2, 0.3],
//	    "seeds": 2,
//	    "warmup": 30000, "measure": 10000, "drain": 20000,
//	    "vcs": 0, "buffer": 32,
//	    "localLatency": 10, "globalLatency": 15,
//	    "speedup": 2, "packetSize": 1, "shards": 0
//	  }]
//	}
type Suite struct {
	Experiments []Experiment `json:"experiments"`
}

// Experiment is the one description of a simulation sweep: the suite
// format of cmd/experiment, what a paper figure is a table of
// (internal/figures) and what cmd/dflysim binds its flags to. A zero
// numeric field means the default: Table 3 (netsim.DefaultConfig) for
// the network parameters and the seed, the paper's windows
// (sweep.PaperWindows), one seed per point, and for vcs each routing
// scheme's own budget.
type Experiment struct {
	Name          string    `json:"name"`
	Topology      string    `json:"topology"`
	Pattern       string    `json:"pattern"`
	Routing       []string  `json:"routing"`
	Policy        string    `json:"policy"`
	Rates         []float64 `json:"rates"`
	Seeds         int       `json:"seeds"`
	Seed          uint64    `json:"seed"`
	Warmup        int64     `json:"warmup"`
	Measure       int64     `json:"measure"`
	Drain         int64     `json:"drain"`
	VCs           int       `json:"vcs"`
	Buffer        int       `json:"buffer"`
	LocalLatency  int       `json:"localLatency"`
	GlobalLatency int       `json:"globalLatency"`
	Speedup       int       `json:"speedup"`
	PacketSize    int       `json:"packetSize"`
	// Shards is the simulator's intra-run shard count (0/1 = one
	// shard; see netsim.Config.Shards). Results are bit-identical for
	// any value; schemes that revise routes in flight (PAR) resolve
	// to one shard automatically.
	Shards int `json:"shards"`
}

// LoadSuite parses a suite and resolves every experiment statically
// (Resolve on no pool), so a bad entry anywhere is reported before
// anything runs.
func LoadSuite(r io.Reader) (*Suite, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: suite: %w", err)
	}
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("spec: suite has no experiments")
	}
	for i := range s.Experiments {
		if _, err := s.Experiments[i].Resolve(nil); err != nil {
			return nil, fmt.Errorf("spec: experiment %d (%q): %w", i, s.Experiments[i].Name, err)
		}
	}
	return &s, nil
}

// FieldError is a bad value in one field of an Experiment, named as
// the suite JSON spells it.
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return fmt.Sprintf("%q: %v", e.Field, e.Err) }
func (e *FieldError) Unwrap() error { return e.Err }

// configField names the Experiment field behind each netsim.Config
// field (and the rate) that netsim.Config.Check can refuse.
var configField = map[string]string{
	"rate": "rates", "NumVCs": "vcs", "BufSize": "buffer", "SpeedUp": "speedup", "PacketSize": "packetSize",
	"LocalLatency": "localLatency", "GlobalLatency": "globalLatency", "topology": "topology",
}

// lay writes v over *dst unless v is zero, an Experiment's way of
// saying "the default".
func lay[T comparable](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
}

// Resolved is an experiment made runnable: everything Run hands to
// sweep.LatencyCurveOn. The values are the caller's to adjust before
// Run — that is how cmd/dflysim lays a failure mask on, and how
// internal/figures sets the two things the grammar cannot say.
type Resolved struct {
	Name    string
	T       *topo.Compiled
	Pattern sweep.PatternFactory
	Rates   []float64
	Windows sweep.Windows
	Seeds   int
	Entries []Entry
}

// Entry is one routing entry of a resolved experiment.
type Entry struct {
	Routing netsim.RoutingFunc
	Config  netsim.Config
}

// Resolve is the one step from a description to what runs: it checks
// every field, builds the topology, the pattern factory (a fresh
// pattern per simulation run, so concurrent runs share no state) and
// the windows, and per routing entry the routing function and the
// netsim.Config — netsim.DefaultConfig with the experiment's non-zero
// fields laid over it and the scheme's VC budget unless vcs is set —
// which netsim.Config.Check must accept at every rate. Each distinct
// policy is compiled once on pool and shared, immutable, by every
// entry and every cloned run; topologies over the compile budget keep
// the interpreted policies. A nil pool compiles nothing: the static
// check LoadSuite makes. Errors are *FieldError.
func (e *Experiment) Resolve(pool *exec.Pool) (*Resolved, error) {
	bad := func(field, format string, args ...any) (*Resolved, error) {
		return nil, &FieldError{Field: field, Err: fmt.Errorf(format, args...)}
	}
	switch {
	case e.Name == "":
		return bad("name", "missing")
	case e.Topology == "":
		return bad("topology", "missing")
	case e.Pattern == "":
		return bad("pattern", "missing")
	case len(e.Routing) == 0:
		return bad("routing", "missing")
	case len(e.Rates) == 0:
		return bad("rates", "missing")
	case slices.Contains(e.Rates, 0):
		return bad("rates", "0 injects nothing")
	}
	// Zero means the default; a negative count or window would size an
	// array in sweep or netsim.
	for _, f := range []struct {
		name string
		v    int64
	}{{"seeds", int64(e.Seeds)}, {"warmup", e.Warmup}, {"measure", e.Measure}, {"drain", e.Drain}, {"shards", int64(e.Shards)}} {
		if f.v < 0 {
			return bad(f.name, "%d is negative", f.v)
		}
	}
	base := netsim.DefaultConfig()
	lay(&base.Seed, e.Seed)
	lay(&base.BufSize, e.Buffer)
	lay(&base.LocalLatency, e.LocalLatency)
	lay(&base.GlobalLatency, e.GlobalLatency)
	lay(&base.SpeedUp, e.Speedup)
	base.PacketSize, base.Shards = e.PacketSize, e.Shards
	res := &Resolved{Name: e.Name, Rates: e.Rates, Windows: sweep.PaperWindows(), Seeds: max(e.Seeds, 1)}
	lay(&res.Windows.Warmup, e.Warmup)
	lay(&res.Windows.Measure, e.Measure)
	lay(&res.Windows.Drain, e.Drain)

	t, err := Topology(e.Topology)
	if err != nil {
		return nil, &FieldError{"topology", err}
	}
	pol, err := Policy(t, e.Policy, rng.Hash64(base.Seed, 0x90))
	if err != nil {
		return nil, &FieldError{"policy", err}
	}
	if _, err := Pattern(t, e.Pattern, base.Seed); err != nil {
		return nil, &FieldError{"pattern", err}
	}
	res.T = t
	res.Pattern = func(seed uint64) traffic.Pattern {
		p, perr := Pattern(t, e.Pattern, seed)
		if perr != nil {
			panic(perr) // parsed above; only the seed varies
		}
		return p
	}
	var schemes []*routing.UGAL
	for _, name := range e.Routing {
		u, vcs, err := Routing(t, name, pol)
		if err != nil {
			return nil, &FieldError{"routing", err}
		}
		cfg := base
		cfg.NumVCs = vcs
		lay(&cfg.NumVCs, e.VCs)
		for _, rate := range e.Rates {
			var ce *netsim.ConfigError
			if err := cfg.Check(t, rate); errors.As(err, &ce) {
				return bad(configField[ce.Field], "%s: %s", u.Name(), ce.Msg)
			}
		}
		schemes = append(schemes, u)
		res.Entries = append(res.Entries, Entry{Routing: u, Config: cfg})
	}
	if pool == nil {
		return res, nil
	}
	stores := map[paths.Policy]paths.Policy{}
	for _, u := range schemes {
		if u.Mode == routing.MinOnly {
			continue // never draws a VLB path
		}
		st, ok := stores[u.Policy]
		if !ok {
			st = u.Policy
			if c, ok := paths.Compiled(pool, t, st, nil); ok {
				st = c
			}
			stores[u.Policy] = st
		}
		u.Policy = st
	}
	return res, nil
}

// ExperimentResult is one experiment's curves.
type ExperimentResult struct {
	Name   string        `json:"name"`
	Curves []sweep.Curve `json:"curves"`
}

// RunOn resolves the experiment and runs it on pool.
func (e *Experiment) RunOn(pool *exec.Pool) (*ExperimentResult, error) {
	r, err := e.Resolve(pool)
	if err != nil {
		return nil, err
	}
	return r.Run(pool), nil
}

// Run sweeps every entry over the rates, one sweep.LatencyCurveOn per
// entry, concurrently on pool; the curves land by entry index.
func (r *Resolved) Run(pool *exec.Pool) *ExperimentResult {
	res := &ExperimentResult{Name: r.Name, Curves: make([]sweep.Curve, len(r.Entries))}
	pool.Run("suite/"+r.Name, len(r.Entries), func(i int) int64 {
		en := r.Entries[i]
		res.Curves[i] = sweep.LatencyCurveOn(pool, r.T, en.Config, en.Routing, r.Pattern, r.Rates, r.Windows, r.Seeds)
		return 0
	})
	return res
}
