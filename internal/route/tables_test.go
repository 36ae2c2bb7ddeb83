package route_test

import (
	"fmt"
	"testing"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/route"
	"tugal/internal/routing"
	"tugal/internal/topo"
	"tugal/internal/traffic"
)

// idleNetwork builds a network that is never stepped: every credit
// counter is full, so CreditOcc/DownstreamOcc report zero — the
// queue state under which every UGAL variant's threshold rule
// reduces to the decision the tables serve.
// numVCs 0 keeps DefaultConfig's budget.
func idleNetwork(t *topo.Compiled, rf netsim.RoutingFunc, numVCs int) *netsim.Network {
	cfg := netsim.DefaultConfig()
	if numVCs > 0 {
		cfg.NumVCs = numVCs
	}
	return netsim.New(t, cfg, rf, traffic.Uniform{T: t}, 0.01)
}

// degradedMask fails a global link, a local link and a whole switch
// on t — enough to exercise refused pairs, shrunken MIN link lists
// and dead-endpoint rows.
func degradedMask(t *topo.Compiled) *topo.FailureMask {
	m := topo.NewFailureMask(t)
	sw, gp := wiredGlobal(t)
	if _, err := m.FailGlobalLink(sw, gp); err != nil {
		panic(err)
	}
	u := t.SwitchID(1, 0)
	if _, err := m.FailLocalLink(u, t.SwitchID(1, 1)); err != nil {
		panic(err)
	}
	if _, err := m.FailSwitch(t.SwitchID(2, 1)); err != nil {
		panic(err)
	}
	return m
}

// wiredGlobal returns the first wired global port (not every port is
// cabled when a*h exceeds g-1).
func wiredGlobal(t *topo.Compiled) (sw, gp int) {
	for sw = 0; sw < t.NumSwitches(); sw++ {
		for gp = 0; gp < t.H; gp++ {
			if _, _, ok := t.GlobalPeerOK(sw, gp); ok {
				return sw, gp
			}
		}
	}
	panic("no wired global port")
}

// equivCase is one (routing function, service) pairing whose
// decisions must match query for query on a shared RNG stream.
type equivCase struct {
	name      string
	mode      route.Mode
	threshold int
	direct    func(t *topo.Compiled, pol paths.Policy) *routing.UGAL
	cfg       route.Config
}

func equivCases() []equivCase {
	return []equivCase{
		{"ugal-l", route.ModeUGAL, 0, routing.NewUGALL, route.Default()},
		{"ugal-g", route.ModeUGAL, 0, routing.NewUGALG, route.Default()},
		{"ugal-pb", route.ModeUGAL, 0, routing.NewPiggyback, route.Default()},
		{"ugal-neg-threshold", route.ModeUGAL, -1, routing.NewUGALL, route.Default()},
		{"min", route.ModeMin, 0, func(t *topo.Compiled, pol paths.Policy) *routing.UGAL {
			return routing.NewMin(t)
		}, route.Default()},
		{"vlb", route.ModeVLB, 0, routing.NewVLB, route.Default()},
		// Six hop-count VCs: VLB words VC-stamped by the scheme the
		// Figure 18 variant simulates, MIN where no VLB survives.
		{"hopcount-vc", route.ModeUGAL, -1, routing.NewUGALL, route.Config{NumVCs: 6, Scheme: routing.HopCountVC}},
	}
}

// TestLookupEquivalence pins the acceptance contract: a table lookup
// fed the same RNG stream as direct paths.Store + routing sampling
// produces bit-identical decisions — same refusals, same chosen
// class, same full route hop for hop including VCs — on pristine and
// degraded topologies, across policies and families.
func TestLookupEquivalence(t *testing.T) {
	topos := []*topo.Compiled{
		topo.MustNew(2, 4, 2, 5),
		mustD3(t, 12, 4, 2),
	}
	for _, tp := range topos {
		for _, degraded := range []bool{false, true} {
			var mask *topo.FailureMask
			if degraded {
				mask = degradedMask(tp)
			}
			for _, polName := range []string{"full", "strategic"} {
				var pol paths.Policy
				if polName == "full" {
					pol = paths.Full{T: tp}
				} else {
					pol = paths.Strategic{T: tp, FirstLeg: 2}
				}
				st := paths.CompileDegraded(tp, pol, mask)
				for _, c := range equivCases() {
					name := fmt.Sprintf("%s/%s/%s/degraded=%v", tp.Label(), polName, c.name, degraded)
					t.Run(name, func(t *testing.T) {
						checkEquivalence(t, tp, st, mask, c, 1500)
					})
				}
			}
		}
	}
}

func mustD3(t *testing.T, k, m, p int) *topo.Compiled {
	t.Helper()
	tp, err := topo.NewD3(k, m, p)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func checkEquivalence(t *testing.T, tp *topo.Compiled, st *paths.Store, mask *topo.FailureMask, c equivCase, trials int) {
	t.Helper()
	u := c.direct(tp, st)
	u.Threshold = c.threshold
	u.Fail = mask
	u.Scheme = c.cfg.Scheme
	n := idleNetwork(tp, u, c.cfg.NumVCs)

	svc, err := route.NewService(st, c.mode, c.threshold, c.cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One continuous stream per side: any draw-count mismatch on one
	// query desynchronizes every later one, so agreement over the
	// whole loop proves draw-for-draw alignment, not just per-query
	// value equality.
	rDirect, rServe := rng.New(7), rng.New(7)
	pairs := rng.New(99)
	f := &netsim.Flit{}
	src := make([]int32, 1)
	dst := make([]int32, 1)
	out := make([]route.Decision, 1)
	var buf []netsim.RouteHop
	refused := 0
	for i := 0; i < trials; i++ {
		src[0] = int32(pairs.Intn(tp.NumNodes()))
		dst[0] = int32(pairs.Intn(tp.NumNodes()))
		f.Src, f.Dst = src[0], dst[0]
		f.Route = f.Route[:0]
		u.SourceRoute(n, rDirect, f)
		svc.LookupBatch(rServe, src, dst, out)
		d := out[0]

		if d.Refused != (len(f.Route) == 0) {
			t.Fatalf("trial %d (%d->%d): served refused=%v, direct route len %d",
				i, src[0], dst[0], d.Refused, len(f.Route))
		}
		if d.Refused {
			refused++
			continue
		}
		if d.Min != f.MinRouted {
			t.Fatalf("trial %d (%d->%d): served min=%v, direct min=%v", i, src[0], dst[0], d.Min, f.MinRouted)
		}
		buf = svc.AppendRouteFor(buf[:0], d, dst[0])
		if len(buf) != len(f.Route) {
			t.Fatalf("trial %d (%d->%d): served %d hops, direct %d", i, src[0], dst[0], len(buf), len(f.Route))
		}
		for h := range buf {
			if buf[h] != f.Route[h] {
				t.Fatalf("trial %d (%d->%d): hop %d served %+v, direct %+v",
					i, src[0], dst[0], h, buf[h], f.Route[h])
			}
		}
		if d.Hops > 0 {
			if d.Port != f.Route[0].Port || d.VC != f.Route[0].VC {
				t.Fatalf("trial %d: first-hop decision (%d,%d) != route head %+v", i, d.Port, d.VC, f.Route[0])
			}
		}
	}
	if mask != nil && refused == 0 {
		t.Error("degraded run never exercised a refusal; mask too weak for the test to bite")
	}
}

// TestEquivalenceAcrossEpochSwap is the acceptance criterion's swap
// half: after a failure-triggered incremental recompile and epoch
// swap, served decisions must be bit-equivalent to a direct router
// built from scratch on the degraded store.
func TestEquivalenceAcrossEpochSwap(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	pol := paths.Full{T: tp}
	st := paths.Compile(tp, pol)
	svc, err := route.NewService(st, route.ModeUGAL, 0, route.Default())
	if err != nil {
		t.Fatal(err)
	}
	check := func(mask *topo.FailureMask) {
		t.Helper()
		dst := paths.CompileDegraded(tp, pol, mask)
		u := routing.NewUGALL(tp, dst)
		u.Fail = mask
		n := idleNetwork(tp, u, 0)
		rDirect, rServe := rng.New(3), rng.New(3)
		pairs := rng.New(11)
		f := &netsim.Flit{}
		src, dstN := make([]int32, 1), make([]int32, 1)
		out := make([]route.Decision, 1)
		var buf []netsim.RouteHop
		for i := 0; i < 800; i++ {
			src[0] = int32(pairs.Intn(tp.NumNodes()))
			dstN[0] = int32(pairs.Intn(tp.NumNodes()))
			f.Src, f.Dst = src[0], dstN[0]
			f.Route = f.Route[:0]
			u.SourceRoute(n, rDirect, f)
			svc.LookupBatch(rServe, src, dstN, out)
			if out[0].Refused != (len(f.Route) == 0) {
				t.Fatalf("trial %d: refusal mismatch", i)
			}
			if out[0].Refused {
				continue
			}
			buf = svc.AppendRouteFor(buf[:0], out[0], dstN[0])
			if len(buf) != len(f.Route) {
				t.Fatalf("trial %d: %d vs %d hops", i, len(buf), len(f.Route))
			}
			for h := range buf {
				if buf[h] != f.Route[h] {
					t.Fatalf("trial %d hop %d: %+v vs %+v", i, h, buf[h], f.Route[h])
				}
			}
		}
	}

	check(nil) // epoch 0
	gsw, ggp := wiredGlobal(tp)
	stats, err := svc.FailGlobalLink(gsw, ggp)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 1 || stats.DirtyPairs == 0 {
		t.Fatalf("expected epoch 1 with dirty rows, got %+v", stats)
	}
	// Mirror mask for the direct side.
	m := topo.NewFailureMask(tp)
	if _, err := m.FailGlobalLink(gsw, ggp); err != nil {
		t.Fatal(err)
	}
	check(m)
	// Second failure: a whole switch, composing on the same epochs.
	if _, err := svc.FailSwitch(tp.SwitchID(3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FailSwitch(tp.SwitchID(3, 0)); err != nil {
		t.Fatal(err)
	}
	check(m)
}

// TestEmitRowShapes spot-checks the emitted layout against the
// sources it compiles from: per-pair VLB counts equal the store's
// pair ranges, MIN counts equal the alive MIN enumeration, and every
// word round-trips decode(pack(x)) == x with VCs assigned by the
// exported routing helper.
func TestEmitRowShapes(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	st := paths.Compile(tp, paths.Full{T: tp})
	tb, err := route.Emit(st, route.Default())
	if err != nil {
		t.Fatal(err)
	}
	n := tp.NumSwitches()
	var hops []netsim.RouteHop
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			min, vlb := tb.Row(s, d)
			_, count := st.PairRange(s, d)
			if len(vlb) != count {
				t.Fatalf("pair (%d,%d): %d vlb words, store has %d paths", s, d, len(vlb), count)
			}
			wantMin := paths.EnumerateMinAlive(tp, nil, s, d)
			if len(min) != len(wantMin) {
				t.Fatalf("pair (%d,%d): %d min words, enumeration has %d", s, d, len(min), len(wantMin))
			}
			for k, w := range min {
				hops = routing.AppendVCHops(hops[:0], tp, 4, routing.PhaseVC, 1, wantMin[k])
				checkWord(t, w, hops)
			}
			vlbPaths := st.Enumerate(s, d)
			for k, w := range vlb {
				hops = routing.AppendVCHops(hops[:0], tp, 4, routing.PhaseVC, 1, vlbPaths[k])
				checkWord(t, w, hops)
			}
		}
	}
	stats := tb.Stats()
	if stats.Rows == 0 || stats.VLBWords != st.NumPaths() {
		t.Fatalf("stats %+v inconsistent with store (%d paths)", stats, st.NumPaths())
	}
}

func checkWord(t *testing.T, w uint64, want []netsim.RouteHop) {
	t.Helper()
	if route.WordHops(w) != len(want) {
		t.Fatalf("word hops %d, want %d", route.WordHops(w), len(want))
	}
	for i, h := range want {
		p, vc := route.WordHop(w, i)
		if p != h.Port || vc != h.VC {
			t.Fatalf("hop %d decodes (%d,%d), want (%d,%d)", i, p, vc, h.Port, h.VC)
		}
	}
}

// TestFirstHopsWeights checks the weighted next-hop view: weights
// sum to the candidate counts and entries are unique per (port, VC)
// within a class.
func TestFirstHopsWeights(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	st := paths.Compile(tp, paths.Full{T: tp})
	tb, err := route.Emit(st, route.Default())
	if err != nil {
		t.Fatal(err)
	}
	var buf []route.FirstHop
	s, d := 0, tp.SwitchID(2, 1)
	min, vlb := tb.Row(s, d)
	buf = tb.FirstHops(s, d, buf[:0])
	sumMin, sumVlb := int32(0), int32(0)
	seen := map[[3]int8]bool{}
	for _, fh := range buf {
		key := [3]int8{fh.Port, fh.VC, b2i(fh.Min)}
		if seen[key] {
			t.Fatalf("duplicate first-hop entry %+v", fh)
		}
		seen[key] = true
		if fh.Min {
			sumMin += fh.Weight
		} else {
			sumVlb += fh.Weight
		}
	}
	if int(sumMin) != len(min) || int(sumVlb) != len(vlb) {
		t.Fatalf("weights (%d,%d) do not cover candidates (%d,%d)", sumMin, sumVlb, len(min), len(vlb))
	}
}

func b2i(b bool) int8 {
	if b {
		return 1
	}
	return 0
}

// TestLookupBatchAllocs pins the zero-allocation contract of the
// query path: once the caller's buffers exist, batches of any size
// allocate nothing — the serving analogue of netsim's
// TestSteadyStateAllocs — in every mode, with the threshold that serves
// VLB, and on a degraded epoch whose patched rows are served too.
func TestLookupBatchAllocs(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 5)
	st := paths.Compile(tp, paths.Full{T: tp})
	const batch = 256
	pairs := rng.New(2)
	src := make([]int32, batch)
	dst := make([]int32, batch)
	out := make([]route.Decision, batch)
	for i := range src {
		src[i] = int32(pairs.Intn(tp.NumNodes()))
		dst[i] = int32(pairs.Intn(tp.NumNodes()))
	}
	for _, c := range []struct {
		mode      route.Mode
		threshold int
	}{{route.ModeUGAL, 0}, {route.ModeUGAL, -1}, {route.ModeMin, 0}, {route.ModeVLB, 0}} {
		for _, degraded := range []bool{false, true} {
			svc, err := route.NewService(st, c.mode, c.threshold, route.Default())
			if err != nil {
				t.Fatal(err)
			}
			if degraded {
				gsw, ggp := wiredGlobal(tp)
				if _, err := svc.FailGlobalLink(gsw, ggp); err != nil {
					t.Fatal(err)
				}
			}
			r := rng.New(1)
			svc.LookupBatch(r, src, dst, out) // warm
			allocs := testing.AllocsPerRun(100, func() {
				svc.LookupBatch(r, src, dst, out)
			})
			if allocs > 0 {
				t.Errorf("mode %v threshold %d degraded=%v: LookupBatch allocated %.1f times per warm batch, want 0",
					c.mode, c.threshold, degraded, allocs)
			}
		}
	}
}

var benchWord uint64

// benchTopo is serve_g17's and churn_g17's dfly(4,8,4,17), or
// dfly(4,8,4,9) under -short.
func benchTopo() *topo.Compiled {
	if testing.Short() {
		return topo.MustNew(4, 8, 4, 9)
	}
	return topo.MustNew(4, 8, 4, 17)
}

// churnService returns a service over tp's full-VLB store after the
// eight global-link failures churn_g17 applies at seed 1: distinct
// wired links drawn as cmd/bench draws them.
func churnService(b *testing.B, tp *topo.Compiled) *route.Service {
	svc, err := route.NewService(paths.Compile(tp, paths.Full{T: tp}), route.ModeUGAL, 0, route.Default())
	if err != nil {
		b.Fatal(err)
	}
	fr := rng.New(rng.Hash64(1, 0xfa11))
	for fails := 0; fails < 8; {
		sw, gp := fr.Intn(tp.NumSwitches()), fr.Intn(tp.H)
		if _, _, ok := tp.GlobalPeerOK(sw, gp); !ok {
			continue
		}
		if stats, err := svc.FailGlobalLink(sw, gp); err != nil {
			b.Fatal(err)
		} else if stats.NewlyDead > 0 {
			fails++
		}
	}
	return svc
}

// BenchmarkLookup times one Tables.Lookup per op, per mode, on the
// full-VLB tables of benchTopo, cycling through 64Ki seeded switch
// pairs; vlb-degraded serves VLB on the epoch after churnService's
// eight failures, the one case that selects through a dead list.
func BenchmarkLookup(b *testing.B) {
	tp := benchTopo()
	tb, err := route.Emit(paths.Compile(tp, paths.Full{T: tp}), route.Default())
	if err != nil {
		b.Fatal(err)
	}
	const pool = 1 << 16
	pairs := rng.New(2)
	src, dst := make([]int, pool), make([]int, pool)
	for i := range src {
		src[i], dst[i] = pairs.Intn(tp.NumSwitches()), pairs.Intn(tp.NumSwitches())
	}
	run := func(name string, tb *route.Tables, mode route.Mode) {
		b.Run(name, func(b *testing.B) {
			r := rng.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i & (pool - 1)
				benchWord += tb.Lookup(r, mode, 0, src[j], dst[j]).Word
			}
		})
	}
	for _, mode := range []route.Mode{route.ModeUGAL, route.ModeMin, route.ModeVLB} {
		run(mode.String(), tb, mode)
	}
	tb = nil // the pristine store can go before the next one is compiled
	run("vlb-degraded", churnService(b, tp).Tables(), route.ModeVLB)
}

var benchStats route.Stats

// BenchmarkStats times Tables.Stats — routed's startup line and every
// GET /stats — on benchTopo's tables after churnService's eight
// failures, where most rows are still the base's and the trimmed ones
// are read as merges of a range with its dead list.
func BenchmarkStats(b *testing.B) {
	tb := churnService(b, benchTopo()).Tables()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStats = tb.Stats()
	}
	b.ReportMetric(float64(tb.PatchBytes())/(1<<20), "patch-MiB")
}
