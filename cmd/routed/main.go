// Command routed compiles a topology's routing decisions into
// forwarding tables (internal/route) and serves route lookups from
// them over HTTP. (Its throughput and latency are measured from
// outside, by cmd/bench's serve_g17, churn_g17 and wire_g17.)
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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
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
	addr := flag.String("addr", ":8709", "HTTP listen address")
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
