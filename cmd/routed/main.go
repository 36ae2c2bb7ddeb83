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
// Limits: POST /lookup takes exactly {"pairs":[[src,dst],…]}, at most
// 65 536 pairs in at most 2 MiB (413 past either, 400 for a malformed
// body or a node id out of range). A connection gets 5 s to send a
// header, 30 s for a request, a minute to take the reply and 5 minutes
// idle; SIGINT or SIGTERM gives requests in flight 5 s to finish. A
// path set with more paths than an int32 PathID holds (the full set of
// dfly(13,26,13,27)) is refused at start, exit status 1.
//
// Usage:
//
//	routed                                  # serve on :8709
//	routed -topo "dfly(4,8,4,17)" -policy strategic
//	routed -fail switch:3 -mode min         # start degraded
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
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
	failSpec := flag.String("fail", "", "initial failure spec (global:sw:gp,local:u:v,switch:sw)")
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

	if err := fits(t, pol); err != nil {
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
	fmt.Printf("routed: %s policy=%s mode=%s  store %.2fs (%.1f MiB)  tables %.2fs (%d rows, %.1f MiB beside the store)\n",
		t.Label(), tb.Policy(), mode, storeTime.Seconds(), float64(st.Bytes())/(1<<20),
		tb.BuildTime().Seconds(), tb.Stats().Rows, float64(tb.Bytes())/(1<<20))

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("routed: listening on %s\n", l.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, l, newMux(t, svc)); err != nil {
		fail("%v", err)
	}
}

// fits refuses a set past the int32 PathID space before anything is
// compiled: paths.EstimatePaths samples three pairs, where the compile
// would count every pair and then panic. A store places its paths in
// the full set, so the full set must fit too.
func fits(t *topo.Compiled, pol paths.Policy) error {
	for _, p := range []paths.Policy{pol, paths.Full{T: t}} {
		if n := paths.EstimatePaths(t, p); n > math.MaxInt32 {
			return fmt.Errorf("%s on %s has about %d paths, more than the %d an int32 PathID holds",
				p.Name(), t.Label(), n, math.MaxInt32)
		}
	}
	return nil
}

// ---------------------------------------------------------------- serve

// serve answers requests on l with h until ctx is done, then stops
// accepting and gives the requests in flight 5 s to finish. It returns
// nil after a clean shutdown.
func serve(ctx context.Context, l net.Listener, h http.Handler) error {
	srv := &http.Server{
		Handler: h,
		// A client may sit idle on its keep-alive connection for minutes
		// between bursts; a request or a reply may not take that long.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      time.Minute,
		IdleTimeout:       5 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(grace)
	<-served // http.ErrServerClosed, now that Shutdown was called
	return err
}

// lookupScratch is what one POST /lookup needs besides the service. The
// request caps bound its slices, so it is pooled whatever it has served.
type lookupScratch struct {
	body     bytes.Buffer
	src, dst []int32
	out      []route.Decision
	reply    []byte
	rng      rng.Source
}

// newMux returns the service's HTTP surface: POST /lookup, GET /stats
// and POST /fail. Lookups share nothing but svc and the scratch pool.
func newMux(t *topo.Compiled, svc *route.Service) *http.ServeMux {
	var seeds atomic.Uint64
	pool := sync.Pool{New: func() any {
		s := new(lookupScratch)
		s.rng.Reseed(uint64(time.Now().UnixNano()) + seeds.Add(1))
		return s
	}}
	mux := http.NewServeMux()

	mux.HandleFunc("POST /lookup", func(w http.ResponseWriter, req *http.Request) {
		s := pool.Get().(*lookupScratch)
		defer pool.Put(s)
		s.body.Reset()
		_, err := s.body.ReadFrom(http.MaxBytesReader(w, req.Body, maxBodyBytes))
		if err == nil {
			s.src, s.dst, err = parsePairs(s.body.Bytes(), s.src, s.dst)
		}
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) || errors.Is(err, errTooManyPairs) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		nn := uint32(t.NumNodes())
		for i, a := range s.src {
			if b := s.dst[i]; uint32(a) >= nn || uint32(b) >= nn {
				http.Error(w, fmt.Sprintf("node pair [%d %d] out of range [0,%d)", a, b, nn), http.StatusBadRequest)
				return
			}
		}
		s.out = slices.Grow(s.out[:0], len(s.src))[:len(s.src)]
		svc.LookupBatch(&s.rng, s.src, s.dst, s.out)
		s.reply = appendDecisions(s.reply[:0], s.out)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(s.reply)))
		w.Write(s.reply) // an error here is a client that left; there is no one to tell
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

// writeJSON sends v indented, as /stats and /fail always have.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "routed: reply: %v\n", err)
	}
}
