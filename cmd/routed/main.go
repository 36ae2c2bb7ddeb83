// Command routed compiles a topology's routing decisions into
// forwarding tables (internal/route) and serves route lookups from
// them — over HTTP for interactive use, or against a built-in load
// generator that measures sustained lookup throughput and latency
// percentiles and writes BENCH_routed.json.
//
// The serving layer is epoch-swapped: POST /fail applies a failure
// spec to a copy of the serving mask, filters the table rows it
// dirtied out of the previous epoch's, and swaps mask and tables in
// with a single atomic store — or, when any part of the spec is
// rejected, changes nothing. Lookups in flight keep their epoch; none
// are dropped.
//
// Usage:
//
//	routed                                  # serve on :8709
//	routed -topo "dfly(4,8,4,17)" -policy strategic
//	routed -failures switch:3 -mode min     # start degraded
//	routed -loadgen -duration 5s            # measure lookups/s
//	routed -loadgen -failevery 500ms        # ... under epoch churn
//	routed -loadgen -min 1000000            # CI floor (lookups/s)
//
// Load-generator latencies are measured per batch (one clock pair
// around each -batch-lookup call) and reported both as batch
// percentiles and as per-lookup nanoseconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/route"
	"tugal/internal/spec"
	"tugal/internal/topo"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "routed: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	topoSpec := flag.String("topo", "dfly(4,8,4,17)", spec.TopologyUsage)
	polSpec := flag.String("policy", "full", "VLB candidate policy spec")
	failSpec := flag.String("failures", "", "initial failure spec (global:sw:gp,local:u:v,switch:sw)")
	modeSpec := flag.String("mode", "ugal", "lookup mode: ugal, min or vlb")
	threshold := flag.Int("threshold", 0, "UGAL threshold bias toward MIN")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	addr := flag.String("addr", ":8709", "HTTP listen address (serve mode)")
	loadgen := flag.Bool("loadgen", false, "run the load generator instead of serving")
	duration := flag.Duration("duration", 5*time.Second, "loadgen: measurement duration")
	batch := flag.Int("batch", 256, "loadgen: lookups per batch")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "loadgen: concurrent lookup workers")
	failEvery := flag.Duration("failevery", 0, "loadgen: inject a random failure this often (0 = none)")
	out := flag.String("o", "", "loadgen: write the JSON report to this file")
	minRate := flag.Float64("min", 0, "loadgen: fail unless lookups/s reaches this floor")
	flag.Parse()

	t, err := spec.Topology(*topoSpec)
	if err != nil {
		fail("%v", err)
	}
	pol, err := spec.Policy(t, *polSpec, *seed)
	if err != nil {
		fail("%v", err)
	}
	mode, err := route.ParseMode(*modeSpec)
	if err != nil {
		fail("%v", err)
	}
	mask, err := spec.Failures(t, *failSpec)
	if err != nil {
		fail("%v", err)
	}

	compileStart := time.Now()
	st := paths.CompileDegraded(t, pol, mask)
	storeTime := time.Since(compileStart)
	svc, err := route.NewService(st, mode, *threshold, route.Default())
	if err != nil {
		fail("%v", err)
	}
	tb := svc.Tables()
	fmt.Printf("routed: %s policy=%s mode=%s  store %.2fs  tables %.2fs (%d rows, %.1f MiB)\n",
		t.Label(), tb.Policy(), mode, storeTime.Seconds(), tb.BuildTime().Seconds(),
		tb.Stats().Rows, float64(tb.Bytes())/(1<<20))

	if *loadgen {
		runLoadgen(t, svc, loadgenConfig{
			duration: *duration, batch: *batch, workers: *workers,
			failEvery: *failEvery, seed: *seed, out: *out, minRate: *minRate,
			topoSpec: *topoSpec, polSpec: *polSpec, mode: mode,
		})
		return
	}
	serve(t, svc, *addr)
}

// ---------------------------------------------------------------- serve

// lookupRequest is the POST /lookup body: node-id pairs.
type lookupRequest struct {
	Pairs [][2]int32 `json:"pairs"`
}

// lookupReply is one decision of a POST /lookup response.
type lookupReply struct {
	Port    int8   `json:"port"`
	VC      int8   `json:"vc"`
	Hops    uint8  `json:"hops"`
	Min     bool   `json:"min"`
	Refused bool   `json:"refused,omitempty"`
	Word    uint64 `json:"word"`
}

func serve(t *topo.Compiled, svc *route.Service, addr string) {
	fmt.Printf("routed: listening on %s\n", addr)
	if err := http.ListenAndServe(addr, newMux(t, svc)); err != nil {
		fail("%v", err)
	}
}

// newMux returns the service's HTTP surface: POST /lookup, GET /stats
// and POST /fail.
func newMux(t *topo.Compiled, svc *route.Service) *http.ServeMux {
	var mu sync.Mutex // serializes the per-request scratch buffers
	var src, dst []int32
	var out []route.Decision
	r := rng.New(uint64(time.Now().UnixNano()))
	mux := http.NewServeMux()

	mux.HandleFunc("POST /lookup", func(w http.ResponseWriter, req *http.Request) {
		var body lookupRequest
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		nn := int32(t.NumNodes())
		for _, p := range body.Pairs {
			if p[0] < 0 || p[0] >= nn || p[1] < 0 || p[1] >= nn {
				http.Error(w, fmt.Sprintf("node pair %v out of range [0,%d)", p, nn), http.StatusBadRequest)
				return
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if cap(src) < len(body.Pairs) {
			src = make([]int32, len(body.Pairs))
			dst = make([]int32, len(body.Pairs))
			out = make([]route.Decision, len(body.Pairs))
		}
		src, dst, out = src[:len(body.Pairs)], dst[:len(body.Pairs)], out[:len(body.Pairs)]
		for i, p := range body.Pairs {
			src[i], dst[i] = p[0], p[1]
		}
		svc.LookupBatch(r, src, dst, out)
		replies := make([]lookupReply, len(out))
		for i, d := range out {
			replies[i] = lookupReply{Port: d.Port, VC: d.VC, Hops: d.Hops, Min: d.Min, Refused: d.Refused, Word: d.Word}
		}
		writeJSON(w, replies)
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		tb := svc.Tables()
		served, batches, swaps := svc.Counters()
		writeJSON(w, map[string]any{
			"topology": t.Label(),
			"policy":   tb.Policy(),
			"mode":     svc.Mode().String(),
			"epoch":    tb.Epoch(),
			"tables":   tb.Stats(),
			"served":   served,
			"batches":  batches,
			"swaps":    swaps,
		})
	})

	mux.HandleFunc("POST /fail", func(w http.ResponseWriter, req *http.Request) {
		fs := req.URL.Query().Get("spec")
		if fs == "" {
			http.Error(w, "missing ?spec=", http.StatusBadRequest)
			return
		}
		stats, err := svc.Fail(func(m *topo.FailureMask) ([]topo.Channel, error) {
			return spec.ApplyFailures(m, fs)
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, stats)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ---------------------------------------------------------------- loadgen

type loadgenConfig struct {
	duration  time.Duration
	batch     int
	workers   int
	failEvery time.Duration
	seed      uint64
	out       string
	minRate   float64
	topoSpec  string
	polSpec   string
	mode      route.Mode
}

// lgReport is the BENCH_routed.json document.
type lgReport struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numCPU"`
	GoVersion  string  `json:"goVersion"`
	Topology   string  `json:"topology"`
	Policy     string  `json:"policy"`
	Mode       string  `json:"mode"`
	Workers    int     `json:"workers"`
	Batch      int     `json:"batch"`
	Seconds    float64 `json:"seconds"`
	Lookups    int64   `json:"lookups"`
	LookupsPer float64 `json:"lookupsPerSec"`
	NSPerOp    float64 `json:"nsPerLookup"`
	// Batch latency percentiles, nanoseconds per -batch-lookup call.
	BatchP50NS  int64 `json:"batchP50NS"`
	BatchP99NS  int64 `json:"batchP99NS"`
	BatchP999NS int64 `json:"batchP999NS"`
	// Epoch churn during the run (loadgen -failevery).
	Swaps      int64       `json:"swaps"`
	TableStats route.Stats `json:"tableStats"`
}

func runLoadgen(t *topo.Compiled, svc *route.Service, cfg loadgenConfig) {
	var stop atomic.Bool
	var lookups atomic.Int64
	hists := make([]*route.Hist, cfg.workers)
	var wg sync.WaitGroup

	for w := 0; w < cfg.workers; w++ {
		hists[w] = &route.Hist{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := hists[w]
			r := rng.New(cfg.seed + uint64(w)*7919)
			pairs := rng.New(cfg.seed + uint64(w)*104729 + 1)
			// Pregenerate a pair pool much larger than a batch so the
			// timed loop touches varied rows without paying pattern
			// generation inside the clock.
			const pool = 1 << 16
			poolSrc := make([]int32, pool)
			poolDst := make([]int32, pool)
			nn := t.NumNodes()
			for i := 0; i < pool; i++ {
				poolSrc[i] = int32(pairs.Intn(nn))
				poolDst[i] = int32(pairs.Intn(nn))
			}
			out := make([]route.Decision, cfg.batch)
			off := 0
			for !stop.Load() {
				if off+cfg.batch > pool {
					off = 0
				}
				src := poolSrc[off : off+cfg.batch]
				dst := poolDst[off : off+cfg.batch]
				off += cfg.batch
				start := time.Now()
				svc.LookupBatch(r, src, dst, out)
				h.Record(time.Since(start).Nanoseconds())
				lookups.Add(int64(cfg.batch))
			}
		}(w)
	}

	if cfg.failEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(cfg.seed + 65537)
			tick := time.NewTicker(cfg.failEvery)
			defer tick.Stop()
			for !stop.Load() {
				<-tick.C
				if stop.Load() {
					return
				}
				// Random global-link failures only: they dirty real
				// rows without ever partitioning the fabric outright.
				sw, gp := r.Intn(t.NumSwitches()), r.Intn(t.H)
				if _, _, ok := t.GlobalPeerOK(sw, gp); !ok {
					continue
				}
				if _, err := svc.FailGlobalLink(sw, gp); err != nil {
					fail("loadgen failure injection: %v", err)
				}
			}
		}()
	}

	start := time.Now()
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start).Seconds()

	var h route.Hist
	for _, wh := range hists {
		h.Merge(wh)
	}
	total := lookups.Load()
	_, _, swaps := svc.Counters()
	rep := lgReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Topology:    cfg.topoSpec,
		Policy:      cfg.polSpec,
		Mode:        cfg.mode.String(),
		Workers:     cfg.workers,
		Batch:       cfg.batch,
		Seconds:     wall,
		Lookups:     total,
		LookupsPer:  float64(total) / wall,
		NSPerOp:     wall * 1e9 / float64(total),
		BatchP50NS:  h.Percentile(0.50),
		BatchP99NS:  h.Percentile(0.99),
		BatchP999NS: h.Percentile(0.999),
		Swaps:       swaps,
		TableStats:  svc.Tables().Stats(),
	}
	fmt.Printf("loadgen: %.2fM lookups/s (%d workers × batch %d, %.1fs, %d swaps)\n",
		rep.LookupsPer/1e6, cfg.workers, cfg.batch, wall, swaps)
	fmt.Printf("loadgen: %.1f ns/lookup; batch latency p50 %s  p99 %s  p999 %s\n",
		rep.NSPerOp, time.Duration(rep.BatchP50NS), time.Duration(rep.BatchP99NS), time.Duration(rep.BatchP999NS))

	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			fail("%v", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail("%v", err)
		}
		f.Close()
		fmt.Printf("loadgen: wrote %s\n", cfg.out)
	}
	if cfg.minRate > 0 && rep.LookupsPer < cfg.minRate {
		fail("lookups/s %.0f below the %.0f floor", rep.LookupsPer, cfg.minRate)
	}
}
