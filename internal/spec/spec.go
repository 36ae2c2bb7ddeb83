// Package spec parses the compact textual specifications used by the
// command-line tools and the JSON experiment runner: topologies,
// path policies ("strategic:2", "capped:4:0.6"), traffic patterns
// ("shift:2:0", "mixed:25"), and routing schemes ("t-ugal-l").
package spec

import (
	"fmt"
	"strconv"
	"strings"

	"tugal/internal/paths"
	"tugal/internal/placement"
	"tugal/internal/rng"
	"tugal/internal/routing"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// TopologyUsage is the one-line grammar of Topology, for flag usage
// strings.
const TopologyUsage = `topology: dfly(p,a,h,g[,arrangement]), d3(K,M[,p]), or legacy "p,a,h,g[,arrangement]"`

// Topology parses a family-qualified topology spec:
//
//	dfly(p,a,h,g)            — dragonfly, absolute arrangement
//	dfly(p,a,h,g,relative)   — dragonfly, relative arrangement
//	d3(K,M)                  — swapped dragonfly, 1 terminal/switch
//	d3(K,M,p)                — swapped dragonfly, p terminals/switch
//	p,a,h,g[,arrangement]    — legacy bare dragonfly form
func Topology(s string) (*topo.Compiled, error) {
	s = strings.TrimSpace(s)
	if fam, args, ok := splitFamily(s); ok {
		switch fam {
		case "dfly", "dragonfly":
			return dflyFromArgs(s, args)
		case "d3":
			return d3FromArgs(s, args)
		default:
			return nil, fmt.Errorf("spec: topology %q: unknown family %q (want dfly or d3); %s", s, fam, TopologyUsage)
		}
	}
	// Legacy bare form "p,a,h,g[,arrangement]".
	return dflyFromArgs(s, strings.Split(s, ","))
}

// splitFamily recognizes "name(arg,arg,...)" and returns the family
// name and comma-split argument list.
func splitFamily(s string) (fam string, args []string, ok bool) {
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", nil, false
	}
	return strings.TrimSpace(s[:open]), strings.Split(s[open+1:len(s)-1], ","), true
}

func dflyFromArgs(s string, args []string) (*topo.Compiled, error) {
	if len(args) < 4 || len(args) > 5 {
		return nil, fmt.Errorf("spec: topology %q: dfly wants 4 int parameters p,a,h,g plus an optional arrangement; %s", s, TopologyUsage)
	}
	var v [4]int
	for i := 0; i < 4; i++ {
		x, err := strconv.Atoi(strings.TrimSpace(args[i]))
		if err != nil {
			return nil, fmt.Errorf("spec: topology %q: parameter %d: %v", s, i+1, err)
		}
		v[i] = x
	}
	arr := topo.Absolute
	if len(args) == 5 {
		switch strings.TrimSpace(args[4]) {
		case "absolute", "":
		case "relative":
			arr = topo.Relative
		default:
			return nil, fmt.Errorf("spec: topology %q: unknown arrangement %q (want absolute or relative)", s, args[4])
		}
	}
	return topo.NewArranged(v[0], v[1], v[2], v[3], arr)
}

func d3FromArgs(s string, args []string) (*topo.Compiled, error) {
	if len(args) < 2 || len(args) > 3 {
		return nil, fmt.Errorf("spec: topology %q: d3 wants 2 or 3 int parameters K,M[,p]; %s", s, TopologyUsage)
	}
	var v [3]int // v[2]=0 selects the family's default p=1
	for i := range args {
		x, err := strconv.Atoi(strings.TrimSpace(args[i]))
		if err != nil {
			return nil, fmt.Errorf("spec: topology %q: parameter %d: %v", s, i+1, err)
		}
		v[i] = x
	}
	return topo.NewD3(v[0], v[1], v[2])
}

// Policy parses a path-policy spec:
//
//	full | all
//	strategic[:firstLeg]
//	capped:<maxHops>[:frac]
func Policy(t *topo.Compiled, s string, seed uint64) (paths.Policy, error) {
	parts := strings.Split(s, ":")
	switch parts[0] {
	case "full", "all", "":
		return paths.Full{T: t}, nil
	case "strategic":
		leg := 2
		if len(parts) > 1 {
			v, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("spec: strategic leg %q (want 2 or 3)", parts[1])
			}
			leg = v
		}
		pol, err := paths.NewStrategic(t, leg)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		return pol, nil
	case "capped":
		if len(parts) < 2 {
			return nil, fmt.Errorf("spec: capped policy needs capped:<maxHops>[:frac]")
		}
		maxHops, err := strconv.Atoi(parts[1])
		if err != nil || maxHops < 2 || maxHops > paths.MaxVLBHops {
			return nil, fmt.Errorf("spec: bad maxHops %q", parts[1])
		}
		frac := 0.0
		if len(parts) > 2 {
			frac, err = strconv.ParseFloat(parts[2], 64)
			if err != nil || frac < 0 || frac > 1 {
				return nil, fmt.Errorf("spec: bad frac %q", parts[2])
			}
		}
		return paths.LengthCapped{T: t, MaxHops: maxHops, Frac: frac, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("spec: unknown policy %q", s)
	}
}

// Pattern parses a traffic-pattern spec:
//
//	ur | uniform
//	shift[:dg[:ds]] | adv[:dg[:ds]]
//	perm
//	gperm
//	mixed[:urPct] | tmixed[:urPct]
//	tornado | transpose | bitcomp | bitrev | alltoall | stencil3d
//	hotspot[:n[:pct]]
//	ring@<placement> | halfshift@<placement> | pairs@<placement>
func Pattern(t *topo.Compiled, s string, seed uint64) (traffic.Pattern, error) {
	if base, strat, ok := strings.Cut(s, "@"); ok {
		return placedPattern(t, base, strat, seed)
	}
	parts := strings.Split(s, ":")
	atoi := func(i, def int) (int, error) {
		if len(parts) <= i {
			return def, nil
		}
		return strconv.Atoi(parts[i])
	}
	switch parts[0] {
	case "ur", "uniform":
		return traffic.Uniform{T: t}, nil
	case "shift", "adv":
		dg, err := atoi(1, 1)
		if err != nil {
			return nil, fmt.Errorf("spec: %v", err)
		}
		ds, err := atoi(2, 0)
		if err != nil {
			return nil, fmt.Errorf("spec: %v", err)
		}
		return traffic.Shift{T: t, DG: dg, DS: ds}, nil
	case "perm":
		return traffic.NewPermutation(t, seed), nil
	case "gperm":
		return traffic.NewGroupPermutation(t, seed), nil
	case "mixed":
		ur, err := atoi(1, 50)
		if err != nil {
			return nil, fmt.Errorf("spec: %v", err)
		}
		// The node split is drawn from its own stream of the seed, the
		// derivation the paper figures have always used.
		return traffic.NewMixed(t, ur, traffic.Shift{T: t, DG: 1, DS: 0}, rng.Hash64(seed, 0x311d)), nil
	case "tmixed":
		ur, err := atoi(1, 50)
		if err != nil {
			return nil, fmt.Errorf("spec: %v", err)
		}
		return traffic.NewTimeMixed(t, ur, traffic.Shift{T: t, DG: 1, DS: 0}), nil
	case "tornado":
		return traffic.Tornado{T: t}, nil
	case "transpose":
		return traffic.NewTranspose(t), nil
	case "bitcomp":
		return traffic.BitComplement{T: t}, nil
	case "bitrev":
		return traffic.NewBitReverse(t), nil
	case "alltoall":
		return traffic.NewAllToAll(t), nil
	case "stencil3d":
		return traffic.NewStencil3D(t), nil
	case "hotspot":
		n, err := atoi(1, 4)
		if err != nil {
			return nil, fmt.Errorf("spec: %v", err)
		}
		pct, err := atoi(2, 50)
		if err != nil {
			return nil, fmt.Errorf("spec: %v", err)
		}
		return traffic.NewHotspot(t, n, pct, seed), nil
	default:
		return nil, fmt.Errorf("spec: unknown pattern %q", s)
	}
}

// placedPattern handles "ring@group-rr"-style specs.
func placedPattern(t *topo.Compiled, base, strat string, seed uint64) (traffic.Pattern, error) {
	var rp placement.RankPattern
	switch base {
	case "ring":
		rp = placement.RingExchange{}
	case "halfshift":
		rp = placement.HalfShift{}
	case "pairs":
		rp = placement.PairExchange{}
	default:
		return nil, fmt.Errorf("spec: unknown rank pattern %q", base)
	}
	var st placement.Strategy
	switch strat {
	case "linear":
		st = placement.Linear
	case "random":
		st = placement.Random
	case "group-rr":
		st = placement.GroupRoundRobin
	case "switch-rr":
		st = placement.SwitchRoundRobin
	default:
		return nil, fmt.Errorf("spec: unknown placement %q", strat)
	}
	place, err := placement.Map(t, t.NumNodes(), st, seed)
	if err != nil {
		return nil, err
	}
	return placement.NewPlaced(t, rp, place, st.String()), nil
}

// Failures parses a failure-mask spec: a comma-separated list of
//
//	global:<sw>:<gp>  — the global link on switch sw's gp-th global port
//	local:<u>:<v>     — the local link between switches u and v
//	switch:<sw>       — the whole switch, every channel in and out
//
// Switch ids are flat (0..a*g-1), gp is 0..h-1. An empty spec
// returns a nil mask (pristine topology). Repeating a failure is
// accepted and idempotent, matching the FailureMask contract.
func Failures(t *topo.Compiled, s string) (*topo.FailureMask, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	m := topo.NewFailureMask(t)
	if _, err := ApplyFailures(m, s); err != nil {
		return nil, err
	}
	return m, nil
}

// ApplyFailures applies a failure spec (same grammar as Failures) to
// an existing mask, returning the newly dead channels — the delta
// form route.Service.Fail consumes. Already-dead items contribute
// nothing to the delta.
func ApplyFailures(m *topo.FailureMask, s string) ([]topo.Channel, error) {
	var delta []topo.Channel
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		atoi := func(i int) (int, error) {
			v, err := strconv.Atoi(strings.TrimSpace(parts[i]))
			if err != nil {
				return 0, fmt.Errorf("spec: failure %q: %v", item, err)
			}
			return v, nil
		}
		var chs []topo.Channel
		var err error
		switch {
		case parts[0] == "global" && len(parts) == 3:
			var sw, gp int
			if sw, err = atoi(1); err != nil {
				return nil, err
			}
			if gp, err = atoi(2); err != nil {
				return nil, err
			}
			chs, err = m.FailGlobalLink(sw, gp)
		case parts[0] == "local" && len(parts) == 3:
			var u, v int
			if u, err = atoi(1); err != nil {
				return nil, err
			}
			if v, err = atoi(2); err != nil {
				return nil, err
			}
			chs, err = m.FailLocalLink(u, v)
		case parts[0] == "switch" && len(parts) == 2:
			var sw int
			if sw, err = atoi(1); err != nil {
				return nil, err
			}
			chs, err = m.FailSwitch(sw)
		default:
			return nil, fmt.Errorf("spec: failure %q, want global:<sw>:<gp>, local:<u>:<v> or switch:<sw>", item)
		}
		if err != nil {
			return nil, fmt.Errorf("spec: failure %q: %w", item, err)
		}
		delta = append(delta, chs...)
	}
	return delta, nil
}

// Routing builds a routing function from its spec name — the one
// scheme table — returning it with the VC budget it requires. T-
// schemes use pol as their T-VLB set; conventional schemes route on
// the full set.
func Routing(t *topo.Compiled, name string, pol paths.Policy) (*routing.UGAL, int, error) {
	conv := paths.Full{T: t}
	switch strings.ToLower(name) {
	case "min":
		return routing.NewMin(t), 4, nil
	case "vlb":
		return routing.NewVLB(t, conv), 4, nil
	case "ugal-l":
		return routing.NewUGALL(t, conv), 4, nil
	case "ugal-g":
		return routing.NewUGALG(t, conv), 4, nil
	case "ugal-pb":
		return routing.NewPiggyback(t, conv), 4, nil
	case "par":
		return routing.NewPAR(t, conv), 5, nil
	case "t-ugal-l":
		r := routing.NewUGALL(t, pol)
		r.Label = "T-UGAL-L"
		return r, 4, nil
	case "t-ugal-g":
		r := routing.NewUGALG(t, pol)
		r.Label = "T-UGAL-G"
		return r, 4, nil
	case "t-ugal-pb":
		r := routing.NewPiggyback(t, pol)
		r.Label = "T-UGAL-PB"
		return r, 4, nil
	case "t-par":
		r := routing.NewPAR(t, pol)
		r.Label = "T-PAR"
		return r, 5, nil
	default:
		return nil, 0, fmt.Errorf("spec: unknown routing %q", name)
	}
}
