// Package tugal is a Go implementation of Topology-Custom UGAL
// routing (T-UGAL) on Dragonfly networks, reproducing Rahman et al.,
// "Topology-Custom UGAL Routing on Dragonfly", SC '19.
//
// The package is a facade over the implementation packages:
//
//   - Dragonfly topologies dfly(p,a,h,g) with the absolute global
//     link arrangement (internal/topo)
//   - MIN/VLB path enumeration and candidate-path policies
//     (internal/paths)
//   - the LP-based UGAL throughput model (internal/flow, internal/lp)
//   - a BookSim-style cycle-level network simulator (internal/netsim)
//   - UGAL-L, UGAL-G and PAR routing, conventional or topology-custom
//     (internal/routing)
//   - Algorithm 1, which computes the topology-custom VLB path set
//     T-VLB for any topology (internal/core)
//   - load sweeps and the paper's figure/table harness
//     (internal/sweep, internal/figures)
//
// Quick start:
//
//	t, _ := tugal.NewTopology(4, 8, 4, 9)
//	res, _ := tugal.ComputeTVLB(t, tugal.QuickTVLBOptions())
//	rf := tugal.NewUGALL(t, res.Final) // T-UGAL-L
//	sim := tugal.NewSimulation(t, tugal.DefaultSimConfig(), rf,
//	        tugal.Shift(t, 2, 0), 0.2)
//	fmt.Println(sim.Run(30000, 10000, 20000))
package tugal

import (
	"tugal/internal/core"
	"tugal/internal/exec"
	"tugal/internal/figures"
	"tugal/internal/flow"
	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/routing"
	"tugal/internal/sweep"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// Topology is a compiled topology instance of any supported family:
// the Dragonfly dfly(p,a,h,g) or the swapped Dragonfly d3(K,M).
type Topology = topo.Compiled

// Params are the four Dragonfly parameters.
type Params = topo.Params

// NewTopology validates parameters and builds a Dragonfly with the
// paper's absolute global link arrangement.
func NewTopology(p, a, h, g int) (*Topology, error) { return topo.New(p, a, h, g) }

// MustTopology is NewTopology but panics on error.
func MustTopology(p, a, h, g int) *Topology { return topo.MustNew(p, a, h, g) }

// Arrangement selects the global-link arrangement.
type Arrangement = topo.Arrangement

// Global link arrangements (Hastings et al.); T-UGAL works on either.
const (
	Absolute = topo.Absolute
	Relative = topo.Relative
)

// NewTopologyArranged builds a Dragonfly with an explicit global link
// arrangement.
func NewTopologyArranged(p, a, h, g int, arr Arrangement) (*Topology, error) {
	return topo.NewArranged(p, a, h, g, arr)
}

// NewD3Topology builds a swapped Dragonfly d3(K,M) (Draper) with p
// terminals per switch (p=0 selects the default of 1): M groups of K
// switches, one global slot per switch, K/M parallel links per group
// pair, diameter 3. The whole pipeline — path policies, Algorithm 1,
// routing, simulation — runs on it unchanged.
func NewD3Topology(k, m, p int) (*Topology, error) { return topo.NewD3(k, m, p) }

// Path is a concrete switch route.
type Path = paths.Path

// PathPolicy is a candidate VLB path set — the object T-UGAL
// customizes per topology.
type PathPolicy = paths.Policy

// FullVLB returns conventional UGAL's policy: all VLB paths.
func FullVLB(t *Topology) PathPolicy { return paths.Full{T: t} }

// LengthCappedVLB returns the Table-1 family: all VLB paths of at
// most maxHops hops plus a pseudo-random frac of (maxHops+1)-hop
// paths.
func LengthCappedVLB(t *Topology, maxHops int, frac float64, seed uint64) PathPolicy {
	return paths.LengthCapped{T: t, MaxHops: maxHops, Frac: frac, Seed: seed}
}

// StrategicVLB returns all VLB paths of at most 4 hops plus the
// 5-hop paths formed as a firstLeg-hop MIN leg followed by a
// (5-firstLeg)-hop MIN leg. firstLeg is 2 or 3, the only two ways a
// 5-hop path splits into MIN legs; anything else panics.
func StrategicVLB(t *Topology, firstLeg int) PathPolicy {
	pol, err := paths.NewStrategic(t, firstLeg)
	if err != nil {
		panic(err)
	}
	return pol
}

// PathStore is a policy compiled into an immutable flat arena with
// per-pair PathID ranges: sampling is one RNG draw and materializes
// into a caller buffer without allocating, so one store is shared
// read-only by every run on the worker pool. A PathStore is itself a
// PathPolicy.
type PathStore = paths.Store

// CompileVLB compiles a policy into a PathStore when its path count
// fits the default memory budget; ok is false for topologies whose
// candidate sets are too large to hold in memory (the interpreted
// policy should then be used directly).
func CompileVLB(t *Topology, pol PathPolicy) (*PathStore, bool) {
	return paths.Compiled(exec.Default(), t, pol, nil)
}

// RNG is the deterministic random source threaded through sampling.
type RNG = rng.Source

// NewRNG returns a seeded RNG.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Routing functions. Pass FullVLB for the conventional variants,
// or a T-VLB policy (e.g. ComputeTVLB(...).Final) for T-UGAL-L,
// T-UGAL-G and T-PAR.

// RoutingFunc decides MIN-vs-VLB per packet inside the simulator.
type RoutingFunc = netsim.RoutingFunc

// UGAL is the configurable routing implementation behind the
// constructors (exported for threshold/VC-scheme tweaks).
type UGAL = routing.UGAL

// NewUGALL builds UGAL-L: UGAL with local (credit-based) queue state.
func NewUGALL(t *Topology, pol PathPolicy) *UGAL { return routing.NewUGALL(t, pol) }

// NewUGALG builds the idealized UGAL-G with global queue state.
func NewUGALG(t *Topology, pol PathPolicy) *UGAL { return routing.NewUGALG(t, pol) }

// NewPAR builds progressive adaptive routing (5 VCs required).
func NewPAR(t *Topology, pol PathPolicy) *UGAL { return routing.NewPAR(t, pol) }

// NewPiggyback builds UGAL-PB (Won et al.), a related-work baseline:
// UGAL-L augmented with in-group piggybacked global-channel state.
func NewPiggyback(t *Topology, pol PathPolicy) *UGAL { return routing.NewPiggyback(t, pol) }

// NewMinRouting builds the pure minimal-routing baseline.
func NewMinRouting(t *Topology) *UGAL { return routing.NewMin(t) }

// NewVLBRouting builds the pure Valiant baseline over a policy.
func NewVLBRouting(t *Topology, pol PathPolicy) *UGAL { return routing.NewVLB(t, pol) }

// Traffic patterns (§4.1.3).

// TrafficPattern generates per-packet destinations.
type TrafficPattern = traffic.Pattern

// Uniform returns uniform random traffic.
func Uniform(t *Topology) TrafficPattern { return traffic.Uniform{T: t} }

// DeterministicPattern is a pattern in which every source has one
// fixed destination; only such patterns feed the throughput model.
type DeterministicPattern = traffic.Deterministic

// Shift returns the adversarial shift(dg, ds) pattern.
func Shift(t *Topology, dg, ds int) TrafficPattern { return traffic.Shift{T: t, DG: dg, DS: ds} }

// ShiftPattern is Shift typed for the throughput model.
func ShiftPattern(t *Topology, dg, ds int) DeterministicPattern {
	return traffic.Shift{T: t, DG: dg, DS: ds}
}

// GroupPermutationPattern returns one TYPE_2-style adversarial
// pattern (group-level derangement with per-pair switch
// permutations), typed for the throughput model.
func GroupPermutationPattern(t *Topology, seed uint64) DeterministicPattern {
	return traffic.NewGroupPermutation(t, seed)
}

// RandomPermutation returns a random node permutation pattern.
func RandomPermutation(t *Topology, seed uint64) TrafficPattern {
	return traffic.NewPermutation(t, seed)
}

// MixedTraffic returns MIXED(urPct, 100-urPct) with shift(1,0) as the
// adversarial component.
func MixedTraffic(t *Topology, urPct int, seed uint64) TrafficPattern {
	return traffic.NewMixed(t, urPct, traffic.Shift{T: t, DG: 1, DS: 0}, seed)
}

// TimeMixedTraffic returns TMIXED(urPct, 100-urPct).
func TimeMixedTraffic(t *Topology, urPct int) TrafficPattern {
	return traffic.NewTimeMixed(t, urPct, traffic.Shift{T: t, DG: 1, DS: 0})
}

// Simulation.

// SimConfig holds the simulator parameters (Table 3).
type SimConfig = netsim.Config

// DefaultSimConfig returns the paper's Table-3 defaults.
func DefaultSimConfig() SimConfig { return netsim.DefaultConfig() }

// Simulation is one runnable network instance.
type Simulation = netsim.Network

// SimResult summarizes a run.
type SimResult = netsim.RunResult

// NewSimulation builds a simulation of pattern traffic at the given
// per-node injection rate under a routing function.
func NewSimulation(t *Topology, cfg SimConfig, rf RoutingFunc, pat TrafficPattern, rate float64) *Simulation {
	return netsim.New(t, cfg, rf, pat, rate)
}

// Sweeps.

// SweepWindows bundles warmup/measure/drain cycle counts.
type SweepWindows = sweep.Windows

// SweepPoint is one aggregated load point.
type SweepPoint = sweep.Point

// SweepCurve is a latency-vs-load series.
type SweepCurve = sweep.Curve

// PaperWindows returns the paper's 30000/10000-cycle windows.
func PaperWindows() SweepWindows { return sweep.PaperWindows() }

// LatencyCurve sweeps offered loads for one scheme.
func LatencyCurve(t *Topology, cfg SimConfig, rf RoutingFunc, pat TrafficPattern,
	rates []float64, w SweepWindows, seeds int) SweepCurve {
	return sweep.LatencyCurve(t, cfg, rf, sweep.Fixed(pat), rates, w, seeds)
}

// SaturationThroughput binary-searches the highest non-saturated load.
func SaturationThroughput(t *Topology, cfg SimConfig, rf RoutingFunc, pat TrafficPattern,
	w SweepWindows, seeds int, resolution float64) float64 {
	return sweep.Saturation(t, cfg, rf, sweep.Fixed(pat), w, seeds, resolution)
}

// Execution engine. Every independent-run fan-out (sweep seeds and
// load points, figure curves, T-VLB candidate scoring) schedules onto
// a shared bounded worker pool; results are bit-identical for any
// worker count.

// Pool is the bounded worker pool behind all simulation fan-outs.
type Pool = exec.Pool

// RunStat describes one completed simulation run (wall time,
// simulated cycles, pool queue depth), delivered to a RunObserver.
type RunStat = exec.Stat

// RunObserver receives a RunStat after each run completes.
type RunObserver = exec.Observer

// NewPool builds a pool with the given concurrency bound (< 1 selects
// GOMAXPROCS; 1 is strictly sequential).
func NewPool(workers int) *Pool { return exec.NewPool(workers) }

// DefaultPool returns the process-wide pool.
func DefaultPool() *Pool { return exec.Default() }

// SetDefaultPool replaces the process-wide pool (nil restores a
// GOMAXPROCS-sized one) and returns the previous pool.
func SetDefaultPool(p *Pool) *Pool { return exec.SetDefault(p) }

// T-VLB computation (Algorithm 1).

// TVLBOptions configures Algorithm 1.
type TVLBOptions = core.Options

// TVLBResult is the Algorithm-1 output; Final is the selected policy.
type TVLBResult = core.Result

// DefaultTVLBOptions follows the paper's settings.
func DefaultTVLBOptions() TVLBOptions { return core.DefaultOptions() }

// QuickTVLBOptions is a minutes-scale configuration.
func QuickTVLBOptions() TVLBOptions { return core.QuickOptions() }

// ComputeTVLB runs Algorithm 1 for a topology.
func ComputeTVLB(t *Topology, opt TVLBOptions) (*TVLBResult, error) {
	return core.ComputeTVLB(t, opt)
}

// Throughput model.

// ModelOptions configures the LP-based throughput model.
type ModelOptions = flow.ModelOptions

// ModelResult is a modeled saturation throughput.
type ModelResult = flow.Result

// DefaultModelOptions enumerates candidates exactly with the
// symmetric solver.
func DefaultModelOptions() ModelOptions { return flow.DefaultModelOptions() }

// ModelThroughput models one deterministic pattern's saturation
// throughput under a policy.
func ModelThroughput(t *Topology, pol PathPolicy, pat traffic.Deterministic, opt ModelOptions) (ModelResult, error) {
	return flow.ModelThroughput(t, pol, pat, opt)
}

// Figures.

// FigureOptions configures the per-table/figure harness.
type FigureOptions = figures.Options

// FigureResult is a regenerated table or figure dataset.
type FigureResult = figures.Result

// AllFigures lists experiment ids (table1..3, fig4..fig18).
func AllFigures() []string { return figures.All() }

// RunFigure regenerates one paper table or figure.
func RunFigure(id string, opt FigureOptions) (*FigureResult, error) {
	return figures.Run(id, opt)
}

// DefaultFigureOptions returns demo-scale figure settings.
func DefaultFigureOptions() FigureOptions { return figures.DefaultOptions() }
