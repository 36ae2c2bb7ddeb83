package traffic

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"tugal/internal/rng"
	"tugal/internal/topo"
)

func TestTraceRoundTrip(t *testing.T) {
	tp := topo.MustNew(2, 4, 2, 9)
	rec := NewRecorder(Uniform{T: tp}, tp.NumNodes())
	r := rng.New(4)
	type pair struct{ s, d int }
	var generated []pair
	for i := 0; i < 500; i++ {
		src := r.Intn(tp.NumNodes())
		d, ok := rec.Dest(r, src)
		if ok {
			generated = append(generated, pair{src, d})
		}
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rp, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Remaining() != len(generated) {
		t.Fatalf("remaining %d want %d", rp.Remaining(), len(generated))
	}
	// Replay per source must reproduce each source's sub-stream.
	wantPerSrc := map[int][]int{}
	for _, g := range generated {
		wantPerSrc[g.s] = append(wantPerSrc[g.s], g.d)
	}
	for src, wants := range wantPerSrc {
		for i, want := range wants {
			d, ok := rp.Dest(nil, src)
			if !ok || d != want {
				t.Fatalf("src %d record %d: got %d/%v want %d", src, i, d, ok, want)
			}
		}
		if _, ok := rp.Dest(nil, src); ok {
			t.Fatalf("src %d replayed too many records", src)
		}
	}
	if rp.Remaining() != 0 {
		t.Fatalf("remaining %d after full replay", rp.Remaining())
	}
	rp.Rewind()
	if rp.Remaining() != len(generated) {
		t.Fatal("rewind did not restore records")
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTrace(strings.NewReader("DFTR")); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Bad version.
	var buf bytes.Buffer
	buf.WriteString("DFTR")
	buf.Write([]byte{9, 0, 0, 0, 8, 0, 0, 0})
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("bad version accepted")
	}
	// Out-of-range record.
	buf.Reset()
	buf.WriteString("DFTR")
	buf.Write([]byte{1, 0, 0, 0, 2, 0, 0, 0}) // 2 nodes
	buf.Write([]byte{5, 0, 0, 0, 0, 0, 0, 0}) // src 5 out of range
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("out-of-range record accepted")
	}
}

func TestRecorderName(t *testing.T) {
	tp := topo.MustNew(1, 2, 1, 3)
	rec := NewRecorder(Uniform{T: tp}, tp.NumNodes())
	if rec.Name() != "UR+rec" {
		t.Fatalf("name %q", rec.Name())
	}
}

// FuzzReadTrace: any byte stream is an error or a Replay that hands
// back exactly the records the stream held — every destination a node
// of the trace, per source in stream order — never a panic, and never
// arrays for more nodes than maxTraceNodes however few bytes asked for
// them.
func FuzzReadTrace(f *testing.F) {
	hdr := func(version, nodes uint32, recs ...uint32) []byte {
		b := []byte(traceMagic)
		for _, v := range append([]uint32{version, nodes}, recs...) {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add([]byte("not a trace at all"))
	f.Add([]byte("DFTR"))
	f.Add(hdr(9, 8))
	f.Add(hdr(1, 2, 5, 0))
	f.Add(hdr(1, 4, 0, 3, 1, 2, 0, 1, 3, 3))
	f.Add(hdr(1, 4, 0, 3, 1))          // a record cut short
	f.Add(hdr(1, 2, 1, 0xffffffff))    // a destination past int32
	f.Add(hdr(1, 0))                   // no nodes
	f.Add(hdr(1, 0xffffffff, 7, 7))    // a node count no topology has
	f.Add(hdr(1, maxTraceNodes, 0, 0)) // the largest one accepted
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rp.numNodes <= 0 || rp.numNodes > maxTraceNodes || len(rp.perSrc) != rp.numNodes {
			t.Fatalf("accepted a trace of %d nodes (%d streams)", rp.numNodes, len(rp.perSrc))
		}
		recs := data[12:]
		if len(recs)%8 != 0 || rp.Remaining() != len(recs)/8 {
			t.Fatalf("%d bytes of records became %d", len(recs), rp.Remaining())
		}
		for ; len(recs) > 0; recs = recs[8:] {
			src, want := int(binary.LittleEndian.Uint32(recs)), int(binary.LittleEndian.Uint32(recs[4:]))
			if dst, ok := rp.Dest(nil, src); !ok || dst != want || dst < 0 || dst >= rp.numNodes {
				t.Fatalf("source %d replays %d (ok=%v), the stream says %d of %d nodes", src, dst, ok, want, rp.numNodes)
			}
		}
	})
}
