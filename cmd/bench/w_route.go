package main

import (
	"fmt"
	"runtime"
	"time"

	"tugal/internal/netsim"
	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/route"
	"tugal/internal/spec"
	"tugal/internal/topo"
)

const (
	batchPairs   = 256     // lookups per LookupBatch call and per /lookup request
	poolPairs    = 1 << 16 // seeded node pairs the batches cycle through
	serveBatches = 4000    // LookupBatch calls per serve_g17 segment
	churnBatches = 1000    // LookupBatch calls after each churn_g17 failure
)

// routeRunner is serve_g17 and churn_g17: in-process lookups against
// a route.Service, read-only or with one global-link failure before
// every segment's lookups.
type routeRunner struct {
	c     config
	spec  string
	churn bool
	// perSegment is the number of LookupBatch calls in a segment.
	perSegment int

	// Inputs, generated from the seed on the harness's own topology.
	gen      *topo.Compiled
	src, dst []int32
	fails    [][2]int    // (switch, global port) per segment, churn only
	lookupRG *rng.Source // the lookups' draws, reseeded by rewind

	// The system under test, its table size before any patch, and (on
	// the traced pass) the live heap before the first failure.
	st         *paths.Store
	svc        *route.Service
	tableBytes int64
	heapMB     float64

	// Output checks. mask mirrors the failures applied so far.
	mask    *topo.FailureMask
	out     []route.Decision
	hops    []netsim.RouteHop
	off     int
	res     passResult
	swaps   []route.SwapStats
	lookupT time.Duration // time inside LookupBatch, all segments
	batches int64
}

func newServe(c config, segments int) (runner, error) { return newRoute(c, segments, false) }
func newChurn(c config, segments int) (runner, error) { return newRoute(c, segments, true) }

func newRoute(c config, segments int, churn bool) (*routeRunner, error) {
	r := &routeRunner{c: c, spec: "dfly(4,8,4,17)", churn: churn, perSegment: serveBatches}
	if churn {
		r.perSegment = churnBatches
	}
	if c.quick {
		r.spec = "dfly(2,4,2,9)"
	}
	gen, err := spec.Topology(r.spec)
	if err != nil {
		return nil, err
	}
	r.gen = gen
	r.src, r.dst = pairPool(gen, c.seed, poolPairs)
	r.mask = topo.NewFailureMask(gen)
	r.out = make([]route.Decision, batchPairs)
	if churn {
		// Distinct wired global links, so every failure kills two
		// live channels and forces a real epoch swap.
		fr := rng.New(rng.Hash64(c.seed, 0xfa11))
		probe := topo.NewFailureMask(gen)
		for len(r.fails) < segments {
			sw, gp := fr.Intn(gen.NumSwitches()), fr.Intn(gen.H)
			if _, _, ok := gen.GlobalPeerOK(sw, gp); !ok {
				continue
			}
			if dead, err := probe.FailGlobalLink(sw, gp); err != nil || len(dead) == 0 {
				continue
			}
			r.fails = append(r.fails, [2]int{sw, gp})
		}
	}
	return r, nil
}

func (r *routeRunner) setup(tr *tracer, parent int32) error {
	sp := tr.begin(parent, "topo.spec.Topology")
	t, err := spec.Topology(r.spec)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(parent, "paths.CompileDegraded")
	r.st = paths.CompileDegraded(t, paths.Full{T: t}, nil)
	tr.end(sp)
	sp = tr.begin(parent, "route.NewService")
	r.svc, err = route.NewService(r.st, route.ModeUGAL, 0, route.Default())
	tr.end(sp)
	if err == nil {
		r.tableBytes = r.svc.Tables().Bytes()
	}
	return err
}

// rewind restarts the batches and their draws. churn_g17 runs one
// round: its failures cannot be taken back.
func (r *routeRunner) rewind() {
	r.off, r.res = 0, passResult{}
	r.lookupRG = rng.New(rng.Hash64(r.c.seed, 0x100c))
}

func (r *routeRunner) segment(i int, tr *tracer, parent int32) (time.Duration, error) {
	var total time.Duration
	if r.churn {
		if tr != nil && i == 0 {
			r.heapMB = liveHeapMB()
		}
		sw, gp := r.fails[i][0], r.fails[i][1]
		sp := tr.begin(parent, "route.FailGlobalLink")
		start := time.Now()
		stats, err := r.svc.FailGlobalLink(sw, gp)
		total += time.Since(start)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		r.swaps = append(r.swaps, stats)
		r.res.ops++
		if _, err := r.mask.FailGlobalLink(sw, gp); err != nil {
			return 0, err
		}
		if stats.NewlyDead != 2 || stats.Epoch != i+1 || r.svc.Tables().Epoch() != i+1 {
			r.res.failed++
		}
		r.res.digest = fold(r.res.digest, uint64(stats.NewlyDead), uint64(stats.VLBDirty), uint64(stats.DirtyPairs))
	}
	for b := 0; b < r.perSegment; b++ {
		if r.off+batchPairs > poolPairs {
			r.off = 0
		}
		src, dst := r.src[r.off:r.off+batchPairs], r.dst[r.off:r.off+batchPairs]
		r.off += batchPairs
		// The clock covers the call alone; the checks below are the
		// harness's cost, not the table's.
		start := time.Now()
		n := r.svc.LookupBatch(r.lookupRG, src, dst, r.out)
		d := time.Since(start)
		total += d
		r.lookupT += d
		r.batches++
		tr.add(parent, "route.LookupBatch", start, d)
		if n != batchPairs {
			return 0, fmt.Errorf("LookupBatch served %d of %d", n, batchPairs)
		}
		r.check(src, dst)
	}
	return total, nil
}

// check validates one batch of decisions and folds them into the
// digest. Every decision must be served (no failure set used here can
// disconnect a pair) with its first hop in range; every 64th is
// decoded to its full route and walked on the harness's topology,
// where it must reach the destination over live channels only.
func (r *routeRunner) check(src, dst []int32) {
	t := r.gen
	for i, d := range r.out {
		r.res.ops++
		r.res.digest = fold(r.res.digest, d.Word, uint64(uint8(d.Port))<<16|uint64(uint8(d.VC))<<8|uint64(d.Hops))
		ok := !d.Refused && d.Port >= 0 && int(d.Port) < t.Radix() && d.VC >= 0 && d.VC < 4 && d.Hops <= paths.MaxVLBHops
		if ok && r.res.ops%64 == 0 {
			ok = r.walk(d, src[i], dst[i])
		}
		if !ok {
			r.res.failed++
		}
	}
}

// walk follows decision d's decoded route from src's switch.
func (r *routeRunner) walk(d route.Decision, src, dst int32) bool {
	t := r.gen
	r.hops = r.svc.AppendRouteFor(r.hops[:0], d, dst)
	if len(r.hops) != int(d.Hops)+1 {
		return false
	}
	sw := t.SwitchOfNode(int(src))
	for _, h := range r.hops[:len(r.hops)-1] {
		if r.mask.ChannelDead(sw, int(h.Port)) {
			return false
		}
		next, ok := t.PeerOfPortOK(sw, int(h.Port))
		if !ok {
			return false
		}
		sw = next
	}
	return sw == t.SwitchOfNode(int(dst)) && int(r.hops[len(r.hops)-1].Port) == t.NodeIndex(int(dst))
}

func (r *routeRunner) finish() (passResult, error) { return r.res, nil }

func (r *routeRunner) release() float64 {
	r.st, r.svc = nil, nil
	return 0
}

func (r *routeRunner) probe(tr *tracer, m metrics) error {
	if r.churn {
		// What the failures left behind for good, store and table
		// patches alike: the growth of the live heap across them.
		m["route.patch_mb_per_fail"] = (liveHeapMB() - r.heapMB) / float64(len(r.swaps))
	}
	m["topo.compile_ms"] = ms(tr.total("topo.spec.Topology"))
	m["paths.compile_ms"] = ms(tr.total("paths.CompileDegraded"))
	m["paths.store_mb"] = float64(r.st.Bytes()) / (1 << 20)
	m["route.emit_ms"] = ms(tr.total("route.NewService"))
	lookupNS := float64(r.lookupT.Nanoseconds()) / float64(r.batches*batchPairs)
	batches := tr.durations("route.LookupBatch")
	m["route.batch_p50_us"] = us(percentile(batches, 0.50))
	m["route.batch_p99_us"] = us(percentile(batches, 0.99))

	var before, after runtime.MemStats
	const allocProbe = 1000
	runtime.ReadMemStats(&before)
	for b := 0; b < allocProbe; b++ {
		r.svc.LookupBatch(r.lookupRG, r.src[:batchPairs], r.dst[:batchPairs], r.out)
	}
	runtime.ReadMemStats(&after)
	m["route.allocs_per_batch"] = float64(after.Mallocs-before.Mallocs) / allocProbe

	// The store's own sampler over the pool's switch pairs.
	t := r.gen
	var buf paths.Path
	sp := tr.begin(-1, "paths.SampleVLBInto")
	start := time.Now()
	for i := 0; i < poolPairs; i++ {
		r.st.SampleVLBInto(r.lookupRG, t.SwitchOfNode(int(r.src[i])), t.SwitchOfNode(int(r.dst[i])), &buf)
	}
	m["paths.sample_ns"] = float64(time.Since(start).Nanoseconds()) / poolPairs
	tr.end(sp)

	m["route.table_mb"] = float64(r.tableBytes) / (1 << 20)
	if !r.churn {
		m["route.lookup_ns"] = lookupNS
		return nil
	}
	m["route.lookup_ns_degraded"] = lookupNS
	var store, delta []time.Duration
	var dirty int
	for _, s := range r.swaps {
		store, delta = append(store, s.StoreBuild), append(delta, s.TableBuild)
		dirty += s.DirtyPairs
	}
	swap := tr.durations("route.FailGlobalLink")
	m["paths.apply_failures_ms"] = ms(percentile(store, 0.5))
	m["route.apply_delta_ms"] = ms(percentile(delta, 0.5))
	m["route.swap_ms_p50"] = ms(percentile(swap, 0.5))
	m["route.swap_ms_max"] = ms(percentile(swap, 1))
	m["route.dirty_rows_per_fail"] = float64(dirty) / float64(len(r.swaps))
	return nil
}
