package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"testing"

	"tugal/internal/paths"
	"tugal/internal/rng"
	"tugal/internal/route"
	"tugal/internal/spec"
	"tugal/internal/topo"
)

// lookupReply is one decision of a /lookup response as cmd/routed used
// to marshal it with encoding/json. It is kept as the oracle
// appendDecisions is held to.
type lookupReply struct {
	Port    int8   `json:"port"`
	VC      int8   `json:"vc"`
	Hops    uint8  `json:"hops"`
	Min     bool   `json:"min"`
	Refused bool   `json:"refused,omitempty"`
	Word    uint64 `json:"word"`
}

// oraclePairs decodes a /lookup body the way cmd/routed used to, less
// the two things it let through by accident: bytes after the first
// value and unknown keys.
func oraclePairs(body []byte) ([][2]int32, error) {
	if !json.Valid(body) {
		return nil, errors.New("not one JSON value")
	}
	var req struct {
		Pairs [][2]int32 `json:"pairs"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return req.Pairs, dec.Decode(&req)
}

// pairCases are request bodies and the pairs parsePairs must read from
// them (nil: must refuse). They seed both fuzz targets.
var pairCases = []struct {
	body  string
	pairs [][2]int32
}{
	{`{"pairs":[]}`, [][2]int32{}},
	{`{"pairs":[[0,37]]}`, [][2]int32{{0, 37}}},
	{`{"pairs":[[0,37],[1,1],[39,0]]}`, [][2]int32{{0, 37}, {1, 1}, {39, 0}}},
	{" {\t\"pairs\" :\r\n[ [ 1 , 2 ] , [3,4] ] } \n", [][2]int32{{1, 2}, {3, 4}}},
	{`{"pairs":[[-0,2147483647],[-2147483648,-1]]}`, [][2]int32{{0, 2147483647}, {-2147483648, -1}}},
	{`{"pairs":[[0,40]]}`, [][2]int32{{0, 40}}}, // parses; the handler refuses node 40

	{``, nil},
	{`null`, nil},
	{`{}`, nil},
	{`{"pairs":null}`, nil},
	{`[[0,1]]`, nil},
	{`{"pairs":[[0,1]]`, nil},
	{`{"pairs":[[0,1]]} x`, nil},
	{"{\"pairs\":[]}\x00", nil}, // found by FuzzParsePairs: NUL is not the end of the body
	{`{"pairs":[[0,1]]}{"pairs":[[2,3]]}`, nil},
	{`{"pairs":[[0,1]],"seed":7}`, nil},
	{`{"pairs":[[0,1]],"pairs":[[2,3]]}`, nil},
	{`{"Pairs":[[0,1]]}`, nil},
	{`{"pairs":[[0,1],]}`, nil},
	{`{"pairs":[[0,1,2]]}`, nil},
	{`{"pairs":[[0]]}`, nil},
	{`{"pairs":[[0,null]]}`, nil},
	{`{"pairs":[0,1]}`, nil},
	{`{"pairs":[["0","1"]]}`, nil},
	{`{"pairs":[[0,1.0]]}`, nil},
	{`{"pairs":[[0,1e2]]}`, nil},
	{`{"pairs":[[0,01]]}`, nil},
	{`{"pairs":[[0,+1]]}`, nil},
	{`{"pairs":[[0,-]]}`, nil},
	{`{"pairs":[[0,2147483648]]}`, nil},
	{`{"pairs":[[-2147483649,0]]}`, nil},
	{`{"pairs":[[0,99999999999999999999999]]}`, nil},
}

func TestParsePairs(t *testing.T) {
	for _, c := range pairCases {
		src, dst, err := parsePairs([]byte(c.body), nil, nil)
		if c.pairs == nil {
			if err == nil {
				t.Errorf("%q: accepted as %v -> %v", c.body, src, dst)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.body, err)
			continue
		}
		if !slices.Equal(zip(src, dst), c.pairs) {
			t.Errorf("%q: read %v -> %v, want %v", c.body, src, dst, c.pairs)
		}
		if want, err := oraclePairs([]byte(c.body)); err != nil || !slices.Equal(want, c.pairs) {
			t.Errorf("%q: encoding/json reads %v (err=%v), the table says %v", c.body, want, err, c.pairs)
		}
	}
}

func zip(src, dst []int32) [][2]int32 {
	out := make([][2]int32, len(src))
	for i := range src {
		out[i] = [2]int32{src[i], dst[i]}
	}
	return out
}

// FuzzParsePairs holds the hand parser to encoding/json on any body:
// what it accepts, encoding/json accepts and reads as the same pairs,
// so whatever encoding/json refuses, it refuses.
func FuzzParsePairs(f *testing.F) {
	for _, c := range pairCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		src, dst, err := parsePairs(body, nil, nil)
		if len(src) != len(dst) {
			t.Fatalf("%q: %d sources, %d destinations", body, len(src), len(dst))
		}
		if err != nil {
			return
		}
		want, oerr := oraclePairs(body)
		if oerr != nil {
			t.Fatalf("%q: parsePairs read %v -> %v, encoding/json refuses it: %v", body, src, dst, oerr)
		}
		if !slices.Equal(zip(src, dst), want) {
			t.Fatalf("%q: parsePairs read %v -> %v, encoding/json %v", body, src, dst, want)
		}
	})
}

// TestParsePairsCap: maxPairs pairs parse, one more is errTooManyPairs,
// and the slices a refused body leaves behind are no longer than the cap.
func TestParsePairsCap(t *testing.T) {
	ids := make([]int32, maxPairs+1)
	src, dst, err := parsePairs(pairsBody(ids, ids), nil, nil)
	if !errors.Is(err, errTooManyPairs) || len(src) > maxPairs || len(dst) > maxPairs {
		t.Fatalf("%d pairs: err=%v with %d read", len(ids), err, len(src))
	}
	if src, _, err = parsePairs(pairsBody(ids[1:], ids[1:]), src, dst); err != nil || len(src) != maxPairs {
		t.Fatalf("%d pairs: err=%v with %d read", maxPairs, err, len(src))
	}
}

// pairsBody encodes a request for the pairs src[i] -> dst[i].
func pairsBody(src, dst []int32) []byte {
	b := []byte(`{"pairs":[`)
	for i := range src {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(src[i]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(dst[i]), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// g5 is dfly(2,4,2,5), compiled, and a service over its full VLB store.
func g5(t testing.TB, mode route.Mode) (*topo.Compiled, *route.Service) {
	t.Helper()
	tp, err := spec.Topology("dfly(2,4,2,5)")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := route.NewService(paths.Compile(tp, paths.Full{T: tp}), mode, 0, route.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tp, svc
}

// seededBatch fills src and dst with n random node pairs.
func seededBatch(tp *topo.Compiled, r *rng.Source, n int) (src, dst []int32) {
	src, dst = make([]int32, n), make([]int32, n)
	for i := range src {
		src[i], dst[i] = int32(r.Intn(tp.NumNodes())), int32(r.Intn(tp.NumNodes()))
	}
	return src, dst
}

// TestAppendDecisionsMatchesEncodingJSON: on seeded batches, pristine
// and with a dead switch (whose pairs are refused), the reply is byte
// for byte the compact encoding/json marshalling of the old lookupReply
// — so key order, types and "refused only when true" all hold — and
// decodes back to the decisions field for field.
func TestAppendDecisionsMatchesEncodingJSON(t *testing.T) {
	for _, mode := range []route.Mode{route.ModeUGAL, route.ModeVLB} {
		tp, svc := g5(t, mode)
		r := rng.New(11)
		for _, degraded := range []bool{false, true} {
			if degraded {
				if _, err := failSwitch(svc, 3); err != nil {
					t.Fatal(err)
				}
			}
			refused := 0
			for batch := 0; batch < 8; batch++ {
				src, dst := seededBatch(tp, r, 256)
				out := make([]route.Decision, len(src))
				svc.LookupBatch(r, src, dst, out)
				want := make([]lookupReply, len(out))
				for i, d := range out {
					want[i] = lookupReply{Port: d.Port, VC: d.VC, Hops: d.Hops, Min: d.Min, Refused: d.Refused, Word: d.Word}
					if d.Refused {
						refused++
					}
				}
				got := appendDecisions(nil, out)
				wantBytes, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, append(wantBytes, '\n')) {
					t.Fatalf("mode %v degraded=%v batch %d: reply differs from encoding/json:\n%s\n%s", mode, degraded, batch, got, wantBytes)
				}
				var back []lookupReply
				if err := json.Unmarshal(got, &back); err != nil || !slices.Equal(back, want) {
					t.Fatalf("mode %v degraded=%v batch %d: reply does not decode to its decisions: %v", mode, degraded, batch, err)
				}
				if !degraded && bytes.Contains(got, []byte(`"refused"`)) {
					t.Fatalf("a pristine reply mentions \"refused\":\n%s", got)
				}
			}
			if degraded == (refused == 0) {
				t.Fatalf("mode %v degraded=%v: %d refused decisions", mode, degraded, refused)
			}
		}
	}
	if got := string(appendDecisions(nil, nil)); got != "[]\n" {
		t.Fatalf("empty reply %q", got)
	}
}

// TestCodecAllocs: on warm scratch, a 256-pair request parses and its
// reply encodes without allocating.
func TestCodecAllocs(t *testing.T) {
	tp, svc := g5(t, route.ModeUGAL)
	r := rng.New(5)
	src, dst := seededBatch(tp, r, 256)
	body := pairsBody(src, dst)
	out := make([]route.Decision, len(src))
	var reply []byte
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if src, dst, err = parsePairs(body, src, dst); err != nil || len(src) != 256 {
			t.Fatalf("parsed %d pairs, err=%v", len(src), err)
		}
		svc.LookupBatch(r, src, dst, out)
		reply = appendDecisions(reply[:0], out)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per request, want 0", allocs)
	}
}
