package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/route"
	"tugal/internal/spec"
	"tugal/internal/topo"
)

// TestFailSpecIsAtomic drives POST /fail over HTTP: a spec whose second
// item is malformed is refused whole — 400, no swap, and its first
// item's link still alive, so failing that link alone afterwards kills
// two channels and swaps — and /stats reports the patch the swap left.
func TestFailSpecIsAtomic(t *testing.T) {
	tp, svc := g5(t, route.ModeUGAL)
	srv := httptest.NewServer(newMux(tp, svc))
	defer srv.Close()

	post := func(failSpec string, into any) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/fail?spec="+failSpec, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	var link string
	for sw := 0; link == ""; sw++ {
		if _, _, ok := tp.GlobalPeerOK(sw, 0); ok {
			link = fmt.Sprintf("global:%d:0", sw)
		}
	}

	if code := post(link+",bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("half-valid spec: status %d, want 400", code)
	}
	if e := svc.Tables().Epoch(); e != 0 {
		t.Fatalf("refused spec swapped to epoch %d", e)
	}
	var swap route.SwapStats
	if code := post(link, &swap); code != http.StatusOK {
		t.Fatalf("valid spec: status %d", code)
	}
	if swap.NewlyDead != 2 || swap.Epoch != 1 || swap.PatchBytes == 0 {
		t.Fatalf("the refused spec's link was already dead, or nothing was patched: %+v", swap)
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Epoch  int         `json:"epoch"`
		Tables route.Stats `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 1 || stats.Tables.PatchBytes != swap.PatchBytes {
		t.Fatalf("/stats epoch %d patchBytes %d, want 1 and %d", stats.Epoch, stats.Tables.PatchBytes, swap.PatchBytes)
	}
}

// lookup posts body to the mux without a server in between.
func lookup(mux http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/lookup", bytes.NewReader(body)))
	return rec
}

// checkReply fails unless a 200's body is one in-range decision per pair.
func checkReply(t *testing.T, tp *topo.Compiled, rec *httptest.ResponseRecorder, pairs int) []lookupReply {
	t.Helper()
	var replies []lookupReply
	if err := json.Unmarshal(rec.Body.Bytes(), &replies); err != nil || len(replies) != pairs {
		t.Fatalf("reply of %d decisions for %d pairs, err=%v:\n%s", len(replies), pairs, err, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("Content-Length %q on a reply of %d bytes", cl, rec.Body.Len())
	}
	for i, d := range replies {
		ok := d.Port == -1 && d.VC == 0 && d.Hops == 0 && d.Word == 0 // the refusal sentinel
		if !d.Refused {
			ok = d.Port >= 0 && int(d.Port) < tp.Radix() && d.VC >= 0 && d.VC < 4 &&
				d.Hops <= paths.MaxVLBHops && int(d.Hops) == route.WordHops(d.Word)
		}
		if !ok {
			t.Fatalf("decision %d out of range: %+v", i, d)
		}
	}
	return replies
}

// TestLookupStatuses: every body of the parser's table gets the status
// its row implies, an out-of-range node id is a 400 naming the pair, and
// only the 200s count as served.
func TestLookupStatuses(t *testing.T) {
	tp, svc := g5(t, route.ModeUGAL)
	mux := newMux(tp, svc)
	var wantServed, wantBatches int64
	for _, c := range pairCases {
		want := http.StatusOK
		for _, p := range c.pairs {
			if int(p[0]) >= tp.NumNodes() || int(p[1]) >= tp.NumNodes() || p[0] < 0 || p[1] < 0 {
				want = http.StatusBadRequest
			}
		}
		if c.pairs == nil {
			want = http.StatusBadRequest
		}
		rec := lookup(mux, []byte(c.body))
		if rec.Code != want {
			t.Errorf("%q: status %d, want %d: %s", c.body, rec.Code, want, rec.Body)
		}
		if rec.Code == http.StatusOK {
			checkReply(t, tp, rec, len(c.pairs))
			wantServed += int64(len(c.pairs))
			wantBatches++
		}
	}
	if rec := lookup(mux, []byte(`{"pairs":[[0,1],[3,40]]}`)); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "[3 40]") {
		t.Errorf("out-of-range pair: status %d, body %q", rec.Code, rec.Body)
	}
	if served, batches, _ := svc.Counters(); served != wantServed || batches != wantBatches {
		t.Errorf("served %d lookups in %d batches, want %d in %d", served, batches, wantServed, wantBatches)
	}
}

// TestLookupLimits posts, over a real connection, one pair more than the
// cap and a 3 MiB body: both are a 413, neither moves /stats' served,
// and the requests after them — the cap itself among them — succeed.
func TestLookupLimits(t *testing.T) {
	tp, svc := g5(t, route.ModeUGAL)
	srv := httptest.NewServer(newMux(tp, svc))
	defer srv.Close()
	post := func(body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/lookup", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	served := func() int64 {
		t.Helper()
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct{ Served int64 }
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats.Served
	}

	ids := make([]int32, maxPairs+1)
	if code, b := post(pairsBody(ids, ids)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d pairs: status %d: %s", len(ids), code, b)
	}
	huge := append(bytes.Repeat([]byte(" "), 3<<20), `{"pairs":[[0,1]]}`...)
	if code, b := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("3 MiB body: status %d: %s", code, b)
	}
	if n := served(); n != 0 {
		t.Fatalf("refused requests served %d lookups", n)
	}
	if code, b := post([]byte(`{"pairs":[[0,37]]}`)); code != http.StatusOK {
		t.Fatalf("request after the refusals: status %d: %s", code, b)
	}
	if code, b := post(pairsBody(ids[1:], ids[1:])); code != http.StatusOK || bytes.Count(b, []byte(`"word"`)) != maxPairs {
		t.Fatalf("%d pairs: status %d, %d decisions", maxPairs, code, bytes.Count(b, []byte(`"word"`)))
	}
	if n := served(); n != 1+maxPairs {
		t.Fatalf("served %d lookups, want %d", n, 1+maxPairs)
	}
}

// FuzzLookupHandler: any body is a 200, a 400 or a 413, never a panic,
// and a 200 is one in-range decision for each pair encoding/json reads
// from the body.
func FuzzLookupHandler(f *testing.F) {
	for _, c := range pairCases {
		f.Add([]byte(c.body))
	}
	tp, svc := g5(f, route.ModeVLB)
	if _, err := svc.FailSwitch(3); err != nil { // so that some decisions are refused
		f.Fatal(err)
	}
	mux := newMux(tp, svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := lookup(mux, body)
		switch rec.Code {
		case http.StatusOK:
			pairs, err := oraclePairs(body)
			if err != nil {
				t.Fatalf("%q: 200 for a body encoding/json refuses: %v", body, err)
			}
			checkReply(t, tp, rec, len(pairs))
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%q: status %d", body, rec.Code)
		}
	})
}

// FuzzFailHandler: any ?spec= on a service that already lost a switch is
// a 200 or a 400, never a panic. A 400 leaves the epoch, the tables and
// the mask exactly as they were; a 200 leaves the mask the spec applied
// to a clone of the old one gives, and reports the epoch it swapped to.
func FuzzFailHandler(f *testing.F) {
	for _, s := range []string{
		"global:0:1", "switch:9", "local:16:18", "global:0:1,switch:9", "global:1:0,bogus", "switch:3",
		"global:2", "global:2:9", "local:4", "local:4:4", "switch:999", "switch:x", "link:1:2",
		"", ",", "switch:-1", "global:99999999999999999999:0", "a=b&spec=switch:1", "switch:1%2Cswitch:2",
	} {
		f.Add(s)
	}
	tp, err := spec.Topology("dfly(2,4,2,5)")
	if err != nil {
		f.Fatal(err)
	}
	st := paths.Compile(tp, paths.Full{T: tp})
	f.Fuzz(func(t *testing.T, failSpec string) {
		svc, err := route.NewService(st, route.ModeUGAL, 0, route.Default())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.FailSwitch(3); err != nil {
			t.Fatal(err)
		}
		before := svc.Tables()
		dead := slices.Clone(before.Mask().DeadDense())
		want := before.Mask().Clone()
		_, wantErr := spec.ApplyFailures(want, failSpec)

		rec := httptest.NewRecorder()
		target := "/fail?" + url.Values{"spec": {failSpec}}.Encode()
		newMux(tp, svc).ServeHTTP(rec, httptest.NewRequest("POST", target, nil))
		after := svc.Tables()
		switch rec.Code {
		case http.StatusBadRequest:
			if wantErr == nil && failSpec != "" {
				t.Fatalf("%q: 400 (%s) for a spec ApplyFailures takes", failSpec, rec.Body)
			}
			if after != before || !slices.Equal(after.Mask().DeadDense(), dead) {
				t.Fatalf("%q: refused, yet epoch %d -> %d or the mask changed", failSpec, before.Epoch(), after.Epoch())
			}
		case http.StatusOK:
			var swap route.SwapStats
			if err := json.Unmarshal(rec.Body.Bytes(), &swap); err != nil || swap.Epoch != after.Epoch() {
				t.Fatalf("%q: reply %s (err=%v), tables at epoch %d", failSpec, rec.Body, err, after.Epoch())
			}
			if wantErr != nil || !slices.Equal(after.Mask().DeadDense(), want.DeadDense()) {
				t.Fatalf("%q: 200, ApplyFailures err=%v, or another mask than it leaves", failSpec, wantErr)
			}
			g0, l0, s0 := before.Mask().Counts()
			g, l, sw := want.Counts()
			if grew := g != g0 || l != l0 || sw != s0; (grew && after.Epoch() != before.Epoch()+1) || (!grew && after != before) {
				t.Fatalf("%q: mask grew=%v, epoch %d -> %d", failSpec, grew, before.Epoch(), after.Epoch())
			}
		default:
			t.Fatalf("%q: status %d", failSpec, rec.Code)
		}
	})
}

// TestConcurrentLookupsAcrossFails races four keep-alive /lookup clients
// against three POST /fail swaps. Every reply is well formed, no
// decision crosses a channel whose /fail had returned before the request
// was sent, and /stats agrees with what the clients sent.
func TestConcurrentLookupsAcrossFails(t *testing.T) {
	tp, svc := g5(t, route.ModeVLB)
	srv := httptest.NewServer(newMux(tp, svc))
	defer srv.Close()

	// masks[k] is the mask after the first k failures.
	fails := []string{"global:0:1", "switch:9", "local:16:18"}
	masks := []*topo.FailureMask{topo.NewFailureMask(tp)}
	for _, f := range fails {
		m := masks[len(masks)-1].Clone()
		if _, err := spec.ApplyFailures(m, f); err != nil {
			t.Fatal(err)
		}
		masks = append(masks, m)
	}

	const clients, perRequest = 4, 64
	var applied atomic.Int32 // failures whose POST /fail has returned
	var sent atomic.Int64
	ticks := make(chan struct{}) // one per finished request, when the main goroutine listens
	stop := make(chan struct{})
	var wg sync.WaitGroup
	finish := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer finish()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				src, dst := seededBatch(tp, r, perRequest)
				mask := masks[applied.Load()]
				resp, err := http.Post(srv.URL+"/lookup", "application/json", bytes.NewReader(pairsBody(src, dst)))
				if err != nil {
					t.Error(err)
					return
				}
				var replies []lookupReply
				err = json.NewDecoder(resp.Body).Decode(&replies)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(replies) != perRequest {
					t.Errorf("status %d, %d decisions, err=%v", resp.StatusCode, len(replies), err)
					return
				}
				sent.Add(perRequest)
				for i, d := range replies {
					sw := tp.SwitchOfNode(int(src[i]))
					for h := 0; h < route.WordHops(d.Word); h++ {
						port, _ := route.WordHop(d.Word, h)
						if mask.ChannelDead(sw, int(port)) {
							t.Errorf("pair %d->%d: hop %d leaves switch %d by port %d, dead before the request was sent", src[i], dst[i], h, sw, port)
							return
						}
						sw = tp.PeerOfPort(sw, int(port))
					}
					// Sent after the last swap, a request can only have met the
					// final epoch, where exactly the dead switch's pairs are refused.
					deadEnd := mask.SwitchDead(tp.SwitchOfNode(int(src[i]))) || mask.SwitchDead(tp.SwitchOfNode(int(dst[i])))
					if mask == masks[len(fails)] && d.Refused != deadEnd {
						t.Errorf("pair %d->%d: refused=%v on the final mask", src[i], dst[i], d.Refused)
						return
					}
				}
				select {
				case ticks <- struct{}{}:
				default:
				}
			}
		}(uint64(c + 1))
	}
	// Each failure lands between requests that have finished and requests
	// still to come.
	await := func(n int) {
		for i := 0; i < n; i++ {
			select {
			case <-ticks:
			case <-time.After(10 * time.Second):
				t.Fatal("clients stalled")
			}
		}
	}
	for _, f := range fails {
		await(2 * clients)
		resp, err := http.Post(srv.URL+"/fail?spec="+f, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/fail?spec=%s: status %d", f, resp.StatusCode)
		}
		applied.Add(1)
	}
	await(2 * clients)
	finish()

	if served, batches, swaps := svc.Counters(); served != sent.Load() || batches != sent.Load()/perRequest || swaps != int64(len(fails)) {
		t.Fatalf("served %d lookups in %d batches over %d swaps; clients got %d decisions", served, batches, swaps, sent.Load())
	}
}

// TestServeDrainsInFlight cancels serve with a /lookup held inside its
// handler, swaps an epoch in under it, and only then lets it go: the
// request is answered in full and serve returns nil after it.
func TestServeDrainsInFlight(t *testing.T) {
	tp, svc := g5(t, route.ModeUGAL)
	mux := newMux(tp, svc)
	inFlight, release := make(chan struct{}), make(chan struct{})
	held := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		close(inFlight)
		<-release
		mux.ServeHTTP(w, req)
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, l, held) }()

	type reply struct {
		code int
		body []byte
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+l.Addr().String()+"/lookup", "application/json", strings.NewReader(`{"pairs":[[0,37],[5,20]]}`))
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- reply{resp.StatusCode, b, err}
	}()

	select {
	case <-inFlight:
	case r := <-got:
		t.Fatalf("request never reached the handler: status %d, err=%v", r.code, r.err)
	}
	cancel()
	// Shutdown closes the listener first: once a dial is refused, serve is
	// waiting for the held request and nothing else.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still open 10 s after cancel")
		}
	}
	if _, err := svc.FailGlobalLink(0, 1); err != nil {
		t.Fatal(err)
	}
	close(release)

	r := <-got
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, err=%v", r.code, r.err)
	}
	var replies []lookupReply
	if err := json.Unmarshal(r.body, &replies); err != nil || len(replies) != 2 {
		t.Fatalf("in-flight request: %d decisions, err=%v: %s", len(replies), err, r.body)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v after a clean shutdown", err)
	}
}
