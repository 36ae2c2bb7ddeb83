package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"tugal/internal/exec"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/sweep"
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

// Experiment is one sweep definition.
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

// LoadSuite parses and validates a suite.
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
		if err := s.Experiments[i].normalize(); err != nil {
			return nil, fmt.Errorf("spec: experiment %d (%q): %w", i, s.Experiments[i].Name, err)
		}
	}
	return &s, nil
}

// normalize applies defaults and validates statically.
func (e *Experiment) normalize() error {
	if e.Name == "" {
		return fmt.Errorf("missing name")
	}
	if e.Topology == "" {
		return fmt.Errorf("missing topology")
	}
	if e.Pattern == "" {
		return fmt.Errorf("missing pattern")
	}
	if len(e.Routing) == 0 {
		return fmt.Errorf("missing routing list")
	}
	if len(e.Rates) == 0 {
		return fmt.Errorf("missing rates")
	}
	for _, r := range e.Rates {
		if r <= 0 || r > 1 {
			return fmt.Errorf("rate %v out of (0,1]", r)
		}
	}
	// Zero means "the default" below; a negative one would reach netsim
	// and sweep as an array size.
	if min(int64(e.Seeds), e.Warmup, e.Measure, e.Drain, int64(e.VCs), int64(e.Buffer), int64(e.LocalLatency),
		int64(e.GlobalLatency), int64(e.Speedup), int64(e.PacketSize), int64(e.Shards)) < 0 {
		return fmt.Errorf("negative count, window, size or latency in %+v", *e)
	}
	if e.Seeds == 0 {
		e.Seeds = 1
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	if e.Warmup == 0 {
		e.Warmup = 30000
	}
	if e.Measure == 0 {
		e.Measure = 10000
	}
	if e.Drain == 0 {
		e.Drain = 20000
	}
	if e.Buffer == 0 {
		e.Buffer = 32
	}
	if e.LocalLatency == 0 {
		e.LocalLatency = 10
	}
	if e.GlobalLatency == 0 {
		e.GlobalLatency = 15
	}
	if e.Speedup == 0 {
		e.Speedup = 2
	}
	if e.PacketSize == 0 {
		e.PacketSize = 1
	}
	return nil
}

// ExperimentResult is one experiment's curves.
type ExperimentResult struct {
	Name   string        `json:"name"`
	Curves []sweep.Curve `json:"curves"`
}

// Run executes the experiment on the default pool.
func (e *Experiment) Run() (*ExperimentResult, error) {
	return e.RunOn(exec.Default())
}

// RunOn executes the experiment on an explicit pool. Every routing
// entry is resolved (and its errors reported) up front; the per-entry
// sweeps then run concurrently and land in Curves by entry index, so
// the result is identical to the former sequential loop.
func (e *Experiment) RunOn(pool *exec.Pool) (*ExperimentResult, error) {
	t, err := Topology(e.Topology)
	if err != nil {
		return nil, err
	}
	pol, err := Policy(t, e.Policy, rng.Hash64(e.Seed, 0x90))
	if err != nil {
		return nil, err
	}
	// Validate the pattern spec once up front; the factory builds a
	// fresh instance per simulation run, so concurrent runs never
	// share pattern state.
	if _, err := Pattern(t, e.Pattern, e.Seed); err != nil {
		return nil, err
	}
	pf := func(seed uint64) traffic.Pattern {
		p, perr := Pattern(t, e.Pattern, seed)
		if perr != nil {
			panic(perr) // validated above; only seed varies
		}
		return p
	}
	// Compile each distinct policy once per experiment; every routing
	// entry (and every cloned run on the pool) shares the immutable
	// store. Over-budget topologies keep the interpreted policies.
	if st, ok := paths.Compiled(pool, t, pol, nil); ok {
		pol = st
	}
	var conv paths.Policy = paths.Full{T: t}
	for _, rname := range e.Routing {
		l := strings.ToLower(rname)
		if l != "min" && !strings.HasPrefix(l, "t-") {
			if st, ok := paths.Compiled(pool, t, conv, nil); ok {
				conv = st
			}
			break
		}
	}
	rfs := make([]netsim.RoutingFunc, len(e.Routing))
	cfgs := make([]netsim.Config, len(e.Routing))
	for i, rname := range e.Routing {
		rf, vcs, err := routingWith(t, rname, pol, conv)
		if err != nil {
			return nil, err
		}
		cfg := netsim.Config{
			NumVCs:        vcs,
			BufSize:       e.Buffer,
			LocalLatency:  e.LocalLatency,
			GlobalLatency: e.GlobalLatency,
			SpeedUp:       e.Speedup,
			LatencyCap:    500,
			Seed:          e.Seed,
			PacketSize:    e.PacketSize,
			Shards:        e.Shards,
		}
		if e.VCs > 0 {
			cfg.NumVCs = e.VCs
		}
		rfs[i], cfgs[i] = rf, cfg
	}
	res := &ExperimentResult{Name: e.Name}
	w := sweep.Windows{Warmup: e.Warmup, Measure: e.Measure, Drain: e.Drain}
	res.Curves = make([]sweep.Curve, len(rfs))
	pool.Run("suite/"+e.Name, len(rfs), func(i int) int64 {
		res.Curves[i] = sweep.LatencyCurveOn(pool, t, cfgs[i], rfs[i], pf, e.Rates, w, e.Seeds)
		return 0
	})
	return res, nil
}
