package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"tugal/internal/paths"
	"tugal/internal/spec"
	"tugal/internal/topo"
)

// requestsPerSegment is the number of POST /lookup requests a segment
// sends, split evenly over the keep-alive clients.
const requestsPerSegment = 400

// routedBuild is the one (untimed) build of cmd/routed per process.
var routedBuild struct {
	once    sync.Once
	bin     string
	seconds float64
	err     error
}

// buildRouted compiles the real cmd/routed into dir.
func buildRouted(dir string) (string, float64, error) {
	b := &routedBuild
	b.once.Do(func() {
		abs, err := filepath.Abs(dir)
		if err != nil {
			b.err = err
			return
		}
		if b.err = os.MkdirAll(abs, 0o755); b.err != nil {
			return
		}
		b.bin = filepath.Join(abs, "routed")
		start := time.Now()
		out, err := exec.Command("go", "build", "-o", b.bin, "tugal/cmd/routed").CombinedOutput()
		b.seconds = time.Since(start).Seconds()
		if err != nil {
			b.err = fmt.Errorf("go build tugal/cmd/routed: %v\n%s", err, out)
		}
	})
	return b.bin, b.seconds, b.err
}

// wireReply is one decision of a /lookup response.
type wireReply struct {
	Port    *int8   `json:"port"`
	VC      *int8   `json:"vc"`
	Hops    *uint8  `json:"hops"`
	Refused bool    `json:"refused"`
	Word    *uint64 `json:"word"`
}

// wireClient is one closed-loop keep-alive connection: it sends its
// next request only after it has read the previous reply in full.
type wireClient struct {
	http   *http.Client
	starts []time.Time
	durs   []time.Duration
	status []int
	bodies []bytes.Buffer // replies of the current segment, checked after it
	err    error
}

// wireRunner is wire_g17: the routed binary, spawned per pass, under
// closed-loop POST /lookup load over loopback. No real link is crossed.
type wireRunner struct {
	c        config
	spec     string
	segments int
	bin      string
	buildS   float64

	gen     *topo.Compiled
	reqs    [][]byte // pre-encoded request bodies, cycled through
	reqHash []uint64 // a hash of each body's pairs, for the digest
	next    int
	clients []*wireClient

	cmd    *exec.Cmd
	stderr bytes.Buffer
	base   string
	ready  time.Duration

	res     passResult      // of the current round
	sent    int64           // requests since routed started, all rounds
	reqT    []time.Duration // every request's latency
	replies []wireReply     // check's decode buffer
	workT   time.Duration
}

func newWire(c config, segments int) (runner, error) {
	r := &wireRunner{c: c, spec: "dfly(4,8,4,17)", segments: segments}
	if c.quick {
		r.spec = "dfly(2,4,2,9)"
	}
	var err error
	if r.bin, r.buildS, err = buildRouted(c.buildDir); err != nil {
		return nil, err
	}
	if r.gen, err = spec.Topology(r.spec); err != nil {
		return nil, err
	}
	src, dst := pairPool(r.gen, c.seed, poolPairs)
	for off := 0; off+batchPairs <= poolPairs; off += batchPairs {
		body := []byte(`{"pairs":[`)
		var h uint64
		for i := off; i < off+batchPairs; i++ {
			h = fold(h, uint64(uint32(src[i]))<<32|uint64(uint32(dst[i])))
			if i > off {
				body = append(body, ',')
			}
			body = append(body, '[')
			body = strconv.AppendInt(body, int64(src[i]), 10)
			body = append(body, ',')
			body = strconv.AppendInt(body, int64(dst[i]), 10)
			body = append(body, ']')
		}
		r.reqs = append(r.reqs, append(body, "]}"...))
		r.reqHash = append(r.reqHash, h)
	}
	per := requestsPerSegment / c.procs
	for i := 0; i < c.procs; i++ {
		r.clients = append(r.clients, &wireClient{
			http:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			starts: make([]time.Time, per), durs: make([]time.Duration, per),
			status: make([]int, per), bodies: make([]bytes.Buffer, per),
		})
	}
	return r, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (r *wireRunner) setup(tr *tracer, parent int32) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	r.base = "http://" + addr
	sp := tr.begin(parent, "routed.start")
	defer tr.end(sp)
	start := time.Now()
	r.cmd = exec.Command(r.bin, "-topo", r.spec, "-addr", addr)
	r.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.c.procs))
	r.cmd.Stderr = &r.stderr
	if err := r.cmd.Start(); err != nil {
		return err
	}
	// Ready is the first 200 from GET /stats. Until the listener is
	// up the connect is refused at once, so the poll costs little.
	for deadline := start.Add(90 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := r.clients[0].http.Get(r.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("routed not ready after 90 s: %v\n%s", err, r.stderr.String())
		}
	}
	r.ready = time.Since(start)
	return nil
}

// rewind restarts the cycle through the request bodies.
func (r *wireRunner) rewind() { r.next, r.res = 0, passResult{} }

func (r *wireRunner) segment(_ int, tr *tracer, parent int32) (time.Duration, error) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range r.clients {
		first := r.next
		r.next += len(cl.durs)
		wg.Add(1)
		go func(cl *wireClient, first int) {
			defer wg.Done()
			for k := range cl.durs {
				body := r.reqs[(first+k)%len(r.reqs)]
				cl.bodies[k].Reset()
				cl.starts[k] = time.Now()
				resp, err := cl.http.Post(r.base+"/lookup", "application/json", bytes.NewReader(body))
				if err != nil {
					cl.err = err
					return
				}
				_, err = cl.bodies[k].ReadFrom(resp.Body)
				resp.Body.Close()
				cl.durs[k] = time.Since(cl.starts[k])
				cl.status[k] = resp.StatusCode
				if err != nil {
					cl.err = err
					return
				}
			}
		}(cl, first)
	}
	wg.Wait()
	d := time.Since(start)
	r.workT += d
	first := r.next - len(r.clients)*len(r.clients[0].durs)
	for _, cl := range r.clients {
		if cl.err != nil {
			return 0, fmt.Errorf("%v\n%s", cl.err, r.stderr.String())
		}
		for k := range cl.durs {
			tr.add(parent, "routed.POST /lookup", cl.starts[k], cl.durs[k])
			r.reqT = append(r.reqT, cl.durs[k])
			r.res.digest = fold(r.res.digest, r.reqHash[(first+k)%len(r.reqs)])
			r.check(cl.status[k], cl.bodies[k].Bytes())
		}
		first += len(cl.durs)
	}
	return d, nil
}

// check validates one reply, outside the timed interval: it must be
// a 200 carrying 256 decisions, each served and in range like an
// in-process one. Every reply's fields are read by scanDecisions;
// every 8th is also decoded in full, which checks its JSON structure.
func (r *wireRunner) check(status int, body []byte) {
	r.sent++
	r.res.ops++
	ok := status == http.StatusOK && scanDecisions(body, r.gen.Radix()) == batchPairs
	if ok && r.sent%8 == 0 {
		r.replies = r.replies[:0]
		ok = json.Unmarshal(body, &r.replies) == nil && len(r.replies) == batchPairs
	}
	if !ok {
		r.res.failed++
	}
}

// scanDecisions walks a /lookup reply's decisions without decoding
// it and returns how many there are, or -1 if one was refused or has
// a port, VC or hop count out of range.
func scanDecisions(body []byte, radix int) int {
	if bytes.Contains(body, []byte(`"refused"`)) {
		return -1
	}
	n := 0
	for {
		port, rest, ok := intAfter(body, `"port":`)
		if !ok {
			return n
		}
		vc, rest, okVC := intAfter(rest, `"vc":`)
		hops, rest, okHops := intAfter(rest, `"hops":`)
		_, rest, okWord := intAfter(rest, `"word":`)
		if !okVC || !okHops || !okWord || port < 0 || port >= radix || vc < 0 || vc >= 4 || hops < 0 || hops > paths.MaxVLBHops {
			return -1
		}
		body = rest
		n++
	}
}

// intAfter finds key in b and parses the integer that follows it,
// after any spaces (routed indents its replies).
func intAfter(b []byte, key string) (v int, rest []byte, ok bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, b, false
	}
	b = bytes.TrimLeft(b[i+len(key):], " ")
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	j := 0
	for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		v = v*10 + int(b[j]-'0')
	}
	if neg {
		v = -v
	}
	return v, b[j:], j > 0
}

func (r *wireRunner) finish() (passResult, error) {
	// The server's own counters must agree with what was sent.
	resp, err := r.clients[0].http.Get(r.base + "/stats")
	if err != nil {
		return r.res, err
	}
	var stats struct{ Served, Batches, Swaps int64 }
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return r.res, fmt.Errorf("GET /stats: %w", err)
	}
	if stats.Served != r.sent*batchPairs || stats.Batches != r.sent || stats.Swaps != 0 {
		return r.res, fmt.Errorf("routed served %d lookups in %d batches (%d swaps), harness sent %d requests",
			stats.Served, stats.Batches, stats.Swaps, r.sent)
	}
	// routed seeds its lookup RNG from the clock, so the decisions
	// differ between rounds; the digest covers what is deterministic,
	// the pairs sent (folded by segment) and how many came back.
	res := r.res
	res.digest = fold(res.digest, uint64(res.ops))
	return res, nil
}

// stop kills routed, waits for it, and returns its peak resident set.
func (r *wireRunner) stop() float64 {
	if r.cmd == nil || r.cmd.Process == nil {
		return 0
	}
	r.cmd.Process.Kill()
	r.cmd.Wait()
	var rss float64
	if ru, ok := r.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = rusageMaxRSSMB(ru)
	}
	r.cmd = nil
	return rss
}

func (r *wireRunner) release() float64 {
	rss := r.stop()
	for _, cl := range r.clients {
		cl.http.CloseIdleConnections()
	}
	return rss
}

func (r *wireRunner) probe(tr *tracer, m metrics) error {
	m["harness.build_s"] = r.buildS
	m["routed.ready_ms"] = ms(r.ready)
	m["routed.req_per_s"] = float64(r.sent) / r.workT.Seconds()
	m["routed.req_p50_us"] = us(percentile(r.reqT, 0.50))
	m["routed.req_p99_us"] = us(percentile(r.reqT, 0.99))

	// The same lookups in process, for the cost of the wire itself.
	in, err := newRoute(r.c, 1, false)
	if err != nil {
		return err
	}
	defer in.release()
	sp := tr.begin(-1, "harness.inProcessProbe")
	defer tr.end(sp)
	if err := in.setup(nil, -1); err != nil {
		return err
	}
	in.rewind()
	if _, err := in.segment(0, nil, -1); err != nil {
		return err
	}
	lookupNS := float64(in.lookupT.Nanoseconds()) / float64(in.batches*batchPairs)
	m["route.lookup_ns"] = lookupNS
	m["routed.overhead_x"] = r.workT.Seconds() * 1e9 / float64(r.sent*batchPairs) / lookupNS
	return nil
}
